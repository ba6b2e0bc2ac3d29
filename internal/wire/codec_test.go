package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func frameCases() []*message {
	return []*message{
		{kind: msgPerformBatch, id: 1, tc: 1, lsn: 42, body: []byte("op-bytes")},
		{kind: msgPerformBatch, id: 1<<63 + 5, tc: 200, epoch: 9, lsn: 1 << 40, body: bytes.Repeat([]byte{0xff, 0x00}, 300)},
		{kind: msgWatermarks, tc: 3, epoch: 2, wm: watermarks{has: wmAll, eosl: 77, lwm: 70, safe: 1 << 50, horizon: 1 << 49}},
		{kind: msgWatermarks, tc: 3, epoch: 2, wm: watermarks{has: wmSafe, safe: 5}},
		{kind: msgPerformBatch, id: 2, tc: 1, epoch: 4, lsn: 43, body: []byte("op-bytes"), wm: watermarks{has: wmEOSL | wmLWM, eosl: 42, lwm: 41}},
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
		got := new(message)
		rest, err := decodeFrame(got, buf)
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
	got := new(message) // one message for every frame: nothing may carry over
	for i, want := range cases {
		var err error
		buf, err = decodeFrame(got, buf)
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
	var in []byte
	got := new(message)
	for i, want := range frameCases() {
		var err error
		if in, err = readFrame(br, in, got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

// retiredKinds are the frame kinds this protocol no longer has: the
// one-operation frame (1), the standalone EOSL and LWM frames (3, 4), the
// standalone safe-timestamp frame (9) and the coalesced reply (11).
var retiredKinds = []msgKind{1, 3, 4, 9, 11}

// retiredFrames are well-formed frames of each retired kind, with and without
// a watermark block.
func retiredFrames() [][]byte {
	var out [][]byte
	for _, k := range retiredKinds {
		out = append(out,
			appendFrame(nil, &message{kind: k, id: 1, tc: 1, epoch: 1, lsn: 7, body: []byte("op-bytes")}),
			appendFrame(nil, &message{kind: k, tc: 1, epoch: 1, wm: watermarks{has: wmAll, eosl: 7, lwm: 6, safe: 5, horizon: 4}}))
	}
	return out
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                       // kind 0 invalid
		{byte(msgWatermarks) + 1}, // kind beyond range
		{byte(msgPerformBatch) | frameWMFlag, 0, 0, 0, 0, 0, 0},       // block flagged, frame ends before it
		{byte(msgPerformBatch) | frameWMFlag, 0, 0, 0, 0, 0, 0, 0x08}, // a mark no decoder knows
		{byte(msgPerformBatch)},       // truncated after kind
		{byte(msgPerformBatch), 0x80}, // unterminated varint
	}
	// A retired kind is refused however well formed its frame: a server
	// would otherwise take it for a watermark frame and never answer it.
	cases = append(cases, retiredFrames()...)
	// Every truncation of a valid frame must error, not panic or misparse.
	full := appendFrame(nil, &message{kind: msgPerformBatch, id: 3, tc: 1, epoch: 2, lsn: 9, body: []byte("xyz"), err: "e",
		wm: watermarks{has: wmAll, eosl: 8, lwm: 7, safe: 300, horizon: 200}})
	for i := 0; i < len(full); i++ {
		cases = append(cases, full[:i])
	}
	for _, c := range cases {
		var m message
		if _, err := decodeFrame(&m, c); err == nil {
			t.Fatalf("decodeFrame(%x) accepted: %+v", c, m)
		}
	}
}

// TestDecodeFrameIsStrict: a frame decodes only from the bytes appendFrame
// writes. A non-minimal varint in its head, a field's length or its
// watermark block is refused, and so is a body or an error text reaching
// past the end.
func TestDecodeFrameIsStrict(t *testing.T) {
	order := []string{"kind", "id", "tc", "epoch", "lsn", "body", "err", "has", "eosl", "lwm", "safe", "horizon"}
	part := map[string][]byte{
		"kind": {byte(msgPerformBatch) | frameWMFlag}, "id": {3}, "tc": {1}, "epoch": {2}, "lsn": {9},
		"body": {3, 'x', 'y', 'z'}, "err": {1, 'e'}, "has": {wmAll}, "eosl": {8}, "lwm": {7},
		"safe": {0xac, 0x02}, "horizon": {0xc8, 0x01},
	}
	frame := func(name string, b []byte) []byte {
		var out []byte
		for _, p := range order {
			if p == name {
				out = append(out, b...)
			} else {
				out = append(out, part[p]...)
			}
		}
		return out
	}
	want := &message{kind: msgPerformBatch, id: 3, tc: 1, epoch: 2, lsn: 9, body: []byte("xyz"), err: "e",
		wm: watermarks{has: wmAll, eosl: 8, lwm: 7, safe: 300, horizon: 200}}
	if enc := frame("", nil); !bytes.Equal(enc, appendFrame(nil, want)) {
		t.Fatalf("the parts spell %x, appendFrame %x", enc, appendFrame(nil, want))
	}
	for name, buf := range map[string][]byte{
		"id non-minimal":           frame("id", []byte{0x83, 0x00}),
		"tc non-minimal":           frame("tc", []byte{0x81, 0x80, 0x00}),
		"epoch non-minimal":        frame("epoch", []byte{0x82, 0x00}),
		"lsn non-minimal":          frame("lsn", []byte{0x89, 0x00}),
		"body length non-minimal":  frame("body", []byte{0x83, 0x00, 'x', 'y', 'z'}),
		"error length non-minimal": frame("err", []byte{0x81, 0x00, 'e'}),
		"eosl non-minimal":         frame("eosl", []byte{0x88, 0x00}),
		"safe non-minimal":         frame("safe", []byte{0xac, 0x82, 0x00}),
		"horizon non-minimal":      frame("horizon", []byte{0xc8, 0x81, 0x00}),
		"body past the end":        frame("body", []byte{30, 'x', 'y', 'z'}),
		"error text past the end":  frame("err", []byte{20, 'e'}),
	} {
		var m message
		if _, err := decodeFrame(&m, buf); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: %x decoded to %+v (err %v)", name, buf, m, err)
		}
	}
}

// FuzzFrame pins the frame codec: any input either fails to decode or
// decodes to a message that re-encodes and re-decodes to itself, and the
// stream reader takes it exactly when it decodes with nothing left over.
// Every input goes through one reused stream buffer and message, as a DC
// connection's frames do. Run with go test -fuzz=FuzzFrame ./internal/wire;
// the seed corpus doubles as a regression suite on every ordinary test run.
func FuzzFrame(f *testing.F) {
	for _, m := range frameCases() {
		f.Add(appendFrame(nil, m))
	}
	f.Add(append(appendFrame(nil, frameCases()[4]), 0)) // a trailing byte
	for _, b := range retiredFrames() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{byte(msgCheckpoint), 7, 1, 0x81, 0x00, 0xe8, 0x07, 0, 0}) // epoch 1 in two bytes
	var (
		in     []byte
		m      message
		stream bytes.Buffer
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		stream.Reset()
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(len(data))))
		stream.Write(data)
		var err error
		in, err = readFrame(bufio.NewReader(&stream), in, &m)
		var fresh message
		rest, derr := decodeFrame(&fresh, data)
		if whole := derr == nil && len(rest) == 0; whole != (err == nil) {
			t.Fatalf("stream read err %v, but decode err %v with %d bytes left", err, derr, len(rest))
		}
		if derr != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		if err == nil && !reflect.DeepEqual(&m, &fresh) {
			t.Fatalf("the reused message differs from a fresh one:\n got %+v\nwant %+v", m, fresh)
		}
		re := appendFrame(nil, &fresh)
		var m2 message
		rest2, err := decodeFrame(&m2, re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v (frame %+v)", err, fresh)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if !reflect.DeepEqual(fresh, m2) {
			t.Fatalf("unstable round trip:\n got %+v\nwant %+v", m2, fresh)
		}
	})
}
