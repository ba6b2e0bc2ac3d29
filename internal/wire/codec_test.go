package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func frameCases() []*message {
	return []*message{
		{kind: msgPerform, id: 1, tc: 1, lsn: 42, body: []byte("op-bytes")},
		{kind: msgPerformBatch, id: 1<<63 + 5, tc: 200, epoch: 9, lsn: 1 << 40, body: bytes.Repeat([]byte{0xff, 0x00}, 300)},
		{kind: msgWatermarks, tc: 3, epoch: 2, wm: watermarks{has: wmAll, eosl: 77, lwm: 70, safe: 1 << 50, horizon: 1 << 49}},
		{kind: msgWatermarks, tc: 3, epoch: 2, wm: watermarks{has: wmSafe, safe: 5}},
		{kind: msgPerform, id: 2, tc: 1, epoch: 4, lsn: 43, body: []byte("op-bytes"), wm: watermarks{has: wmEOSL | wmLWM, eosl: 42, lwm: 41}},
		{kind: msgPerformBatch, id: 3, tc: 1, epoch: 4, lsn: 44, body: []byte{9, 9}, wm: watermarks{has: wmLWM, lwm: 43}},
		{kind: msgCheckpoint, id: 7, tc: 1, epoch: 1, lsn: 1000},
		{kind: msgBeginRestart, id: 8, tc: 1, epoch: 3, lsn: 12},
		{kind: msgEndRestart, id: 9, tc: 1, epoch: 3},
		{kind: msgReply, id: 7, body: []byte{1, 2, 3}},
		{kind: msgReply, id: 8, err: "dc dc0: " + base.ErrStaleEpoch.Error()},
		{kind: msgReply},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, m := range frameCases() {
		buf := appendFrame(nil, m)
		got, rest, err := decodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %+v left %d bytes", m, len(rest))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestFrameRoundTripConcatenated(t *testing.T) {
	var buf []byte
	cases := frameCases()
	for _, m := range cases {
		buf = appendFrame(buf, m)
	}
	for i, want := range cases {
		var got *message
		var err error
		got, buf, err = decodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestStreamFrameRoundTrip(t *testing.T) {
	var net bytes.Buffer
	var scratch []byte
	for _, m := range frameCases() {
		var err error
		scratch, err = writeFrame(&net, scratch, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&net)
	for i, want := range frameCases() {
		got, err := readStreamFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                       // kind 0 invalid
		{byte(msgWatermarks) + 1}, // kind beyond range
		{byte(msgPerform) | frameWMFlag, 0, 0, 0, 0, 0, 0},       // block flagged, frame ends before it
		{byte(msgPerform) | frameWMFlag, 0, 0, 0, 0, 0, 0, 0x08}, // a mark no decoder knows
		{byte(msgPerform)},       // truncated after kind
		{byte(msgPerform), 0x80}, // unterminated varint
	}
	// Every truncation of a valid frame must error, not panic or misparse.
	full := appendFrame(nil, &message{kind: msgPerform, id: 3, tc: 1, epoch: 2, lsn: 9, body: []byte("xyz"), err: "e",
		wm: watermarks{has: wmAll, eosl: 8, lwm: 7, safe: 300, horizon: 200}})
	for i := 0; i < len(full); i++ {
		cases = append(cases, full[:i])
	}
	for _, c := range cases {
		if m, _, err := decodeFrame(c); err == nil {
			t.Fatalf("decodeFrame(%x) accepted: %+v", c, m)
		}
	}
}

// FuzzFrame pins the frame codec: any input either fails to decode or
// decodes to a message that re-encodes and re-decodes to itself. Run with
// go test -fuzz=FuzzFrame ./internal/wire; the seed corpus doubles as a
// regression suite on every ordinary test run.
func FuzzFrame(f *testing.F) {
	for _, m := range frameCases() {
		f.Add(appendFrame(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest, err := decodeFrame(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		re := appendFrame(nil, m)
		m2, rest2, err := decodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v (frame %+v)", err, m)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("unstable round trip:\n got %+v\nwant %+v", m2, m)
		}
	})
}
