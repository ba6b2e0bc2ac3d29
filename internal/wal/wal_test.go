package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/storage"
)

func newLog(t *testing.T) *Log {
	t.Helper()
	l, err := New(storage.NewLogStore())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// roundTripRecords covers the header's every shape: a record of nothing but
// its LSN and kind (a DC-log record, a TC's op record), a Txn alone (a TC's
// commit record), a Prev with and without a Txn, a CLR's NextUndo with and
// without a Prev, one- and many-byte deltas, wide LSNs and transaction ids,
// the largest kind, and an empty and a non-empty payload.
var roundTripRecords = []*Record{
	{LSN: 1, Kind: 2, Txn: 3, Payload: []byte("hello")},
	{LSN: 7},
	{LSN: 1 << 20, Kind: 1, Payload: []byte("\x03\x02kv\x0bk0000000001")},
	{LSN: 1 << 20, Kind: 3, Txn: 1 << 20, Payload: []byte{0}},
	{LSN: 9, Kind: 1, Prev: 8},
	{LSN: 2, Kind: 1, Txn: 1, Prev: 1, Payload: []byte{0}},
	{LSN: 1 << 40, Kind: kindMask, Txn: 1 << 50, Prev: 99, NextUndo: 98},
	{LSN: 1 << 20, Kind: 11, Txn: 1 << 20, Prev: 1<<20 - 3, NextUndo: 1<<20 - 5, Payload: []byte("inverse")}, // the monolith's CLR
	{LSN: 300, Kind: 4, Txn: 17, Prev: 299, NextUndo: 12, Payload: []byte("inverse")},
	{LSN: 300, Kind: 4, Txn: 17, NextUndo: 1},
	{LSN: 1<<63 - 1, Kind: 3, Txn: 1<<64 - 1, Prev: 1<<63 - 2},
	{LSN: 1 << 20, Kind: 5, Txn: 1 << 20, Prev: 1, NextUndo: 1<<20 - 1, Payload: bytes.Repeat([]byte("p"), 130)},
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range roundTripRecords {
		buf := r.Append(nil)
		got, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("roundtrip: in=%+v out=%+v", r, got)
		}
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(lsn uint64, kind uint8, txn, prev, nu uint64, payload []byte) bool {
		// A chain points back: Prev and NextUndo lie below the LSN.
		lsn = lsn>>1 + 1
		r := &Record{LSN: base.LSN(lsn), Kind: kind % (kindMask + 1), Txn: base.TxnID(txn),
			Prev: base.LSN(prev % lsn), NextUndo: base.LSN(nu % lsn), Payload: payload}
		if len(r.Payload) == 0 {
			r.Payload = nil
		}
		got, err := DecodeRecord(r.Append(nil))
		return err == nil && reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordDecodeTruncated: a record cut inside its header is corrupt; one
// cut inside its payload is a record with a shorter payload, since the
// storage frame, not the record, holds the length (and a frame is stable
// whole or not at all).
func TestRecordDecodeTruncated(t *testing.T) {
	r := &Record{LSN: 123456, Kind: 9, Txn: 7, Prev: 123000, NextUndo: 5, Payload: bytes.Repeat([]byte("p"), 30)}
	buf := r.Append(nil)
	head := len(buf) - len(r.Payload)
	for i := 0; i < head; i++ {
		if _, err := DecodeRecord(buf[:i]); !errors.Is(err, errCorrupt) {
			t.Fatalf("truncation at %d: err = %v", i, err)
		}
	}
	for i := head; i <= len(buf); i++ {
		got, err := DecodeRecord(buf[:i])
		if err != nil || !bytes.Equal(got.Payload, r.Payload[:i-head]) || got.NextUndo != r.NextUndo {
			t.Fatalf("cut at %d: %+v, %v", i, got, err)
		}
	}
}

// TestRecordHeaderBytes pins what the header spends: an LSN and a kind, a
// transaction id only when there is one, one byte of chain when Prev is near
// and none without a chain, a second delta only on a CLR, and no length.
func TestRecordHeaderBytes(t *testing.T) {
	for _, c := range []struct {
		r    Record
		want int
	}{
		{Record{LSN: 1 << 20, Kind: 1}, 3 + 1},                   // a TC's op record, a DC-log record
		{Record{LSN: 1 << 20, Kind: 3, Txn: 1 << 20}, 3 + 1 + 3}, // a TC's commit record
		{Record{LSN: 1 << 20, Kind: 1, Prev: 1<<20 - 1}, 3 + 1 + 1},
		{Record{LSN: 1 << 20, Kind: 1, Txn: 1 << 20, Prev: 1<<20 - 1}, 3 + 1 + 3 + 1},
		{Record{LSN: 1 << 20, Kind: 1, Txn: 1 << 20, Prev: 1<<20 - 63}, 3 + 1 + 3 + 1},
		{Record{LSN: 1 << 20, Kind: 1, Txn: 1 << 20, Prev: 1<<20 - 64}, 3 + 1 + 3 + 2},
		{Record{LSN: 1 << 20, Kind: 4, Txn: 1 << 20, Prev: 1<<20 - 1, NextUndo: 1<<20 - 9}, 3 + 1 + 3 + 1 + 1},
		{Record{LSN: 1 << 20, Kind: 4, Txn: 1 << 20, NextUndo: 1<<20 - 9}, 3 + 1 + 3 + 1 + 1},
	} {
		c.r.Payload = []byte("payload")
		if got := len(c.r.Append(nil)) - len(c.r.Payload); got != c.want {
			t.Errorf("%+v: %d header bytes, want %d", c.r, got, c.want)
		}
	}
}

// TestDecodeRefusesWhatAppendCannotWrite: a kind byte without the format
// mark, a flagged transaction id or link that is zero or missing, deltas that
// reach LSN 0 or past it, a NextUndo flag over a zero delta and a
// non-minimal varint are corrupt; Append refuses a link that does not point
// back, and a kind that reaches the kind byte's flag bits.
func TestDecodeRefusesWhatAppendCannotWrite(t *testing.T) {
	const op, txn, link = 1 | kindMark, 1 | kindMark | kindTxn, 1 | kindMark | kindLink
	for name, buf := range map[string][]byte{
		"unmarked":         {5, 1},
		"txn of 0":         {5, txn, 0},
		"txn absent":       {5, txn},
		"link of 0":        {5, link, 0},
		"link absent":      {5, link},
		"prev at 0":        {5, link, 5 << 1},
		"prev below 0":     {5, link, 9 << 1},
		"next undo at 0":   {5, link, 1, 5},
		"next undo absent": {5, link, 1, 0},
		"flag, no delta":   {5, link, 1},
		"non-minimal":      {5, txn, 0x81, 0x00},
		"non-minimal LSN":  {0x85, 0x00, op},
		"no kind":          {5},
	} {
		if _, err := DecodeRecord(buf); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: %x decoded (err %v)", name, buf, err)
		}
	}
	for _, r := range []Record{{LSN: 5, Prev: 5}, {LSN: 5, Prev: 6}, {LSN: 5, NextUndo: 5}, {LSN: 1<<63 + 5, Prev: 1},
		{LSN: 5, Kind: kindMask + 1}, {LSN: 5, Kind: kindTxn}, {LSN: 5, Kind: 255}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: encoded", r)
				}
			}()
			r.Append(nil)
		}()
	}
}

// earlierFormatRecord encodes r as the record format before the kind byte's
// flags: the transaction id and the link always, a zero for each one that is
// not set, and no format mark.
func earlierFormatRecord(r *Record) []byte {
	link := r.delta(r.Prev) << 1
	if r.NextUndo != 0 {
		link |= 1
	}
	buf := binary.AppendUvarint(nil, uint64(r.LSN))
	buf = append(buf, r.Kind)
	buf = binary.AppendUvarint(buf, uint64(r.Txn))
	buf = binary.AppendUvarint(buf, link)
	if r.NextUndo != 0 {
		buf = binary.AppendUvarint(buf, r.delta(r.NextUndo))
	}
	return append(buf, r.Payload...)
}

// TestEarlierFormatLogIsRefused: a TC-log file whose records the earlier
// format wrote — an op record and its commit record, chained, each with its
// transaction id — opens at the storage layer, whose frames did not change,
// and New refuses it with an error that names the format, leaving the file
// byte for byte as it was. The same records in today's format open.
func TestEarlierFormatLogIsRefused(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Kind: 1, Txn: 7, Payload: []byte("\x03\x02kv\x01k\x01v")},
		{LSN: 2, Kind: 3, Txn: 7, Prev: 1, Payload: []byte{0}},
	}
	for _, earlier := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "log")
		s, err := storage.OpenLogStoreFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		for _, r := range recs {
			if earlier {
				frames = append(frames, earlierFormatRecord(r))
			} else {
				frames = append(frames, r.Append(nil))
			}
		}
		s.AppendBatch(1, frames...)
		s.Force()
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if s, err = storage.OpenLogStoreFile(path); err != nil {
			t.Fatalf("earlier %v: the storage layer refused the file: %v", earlier, err)
		}
		l, err := New(s)
		if !earlier {
			if err != nil || len(l.Scan(0)) != 2 || !reflect.DeepEqual(l.Scan(0)[1], recs[1]) {
				t.Fatalf("today's format: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("opened a log of the earlier format: records %+v", l.Scan(0))
		}
		if !strings.Contains(err.Error(), "earlier record format") || !strings.Contains(err.Error(), "@1") {
			t.Fatalf("the refusal does not name the format and the record: %v", err)
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, image) {
			t.Fatalf("the refused file changed: %x, was %x (%v)", data, image, err)
		}
	}
}

// FuzzDecodeRecord: DecodeRecord never panics, and whatever it accepts is
// exactly one record — it re-encodes to the bytes it was decoded from. The
// seeds are every record shape (roundTripRecords: with and without a
// transaction id, a Prev and a NextUndo, the monolith's CLR among them), each
// torn at every byte, and the same records in the earlier format.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range roundTripRecords {
		buf := r.Append(nil)
		for i := 0; i <= len(buf); i++ {
			f.Add(buf[:i])
		}
		f.Add(earlierFormatRecord(r))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := DecodeRecord(buf)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("err = %v", err)
			}
			return
		}
		if got := r.Append(nil); !bytes.Equal(got, buf) {
			t.Fatalf("decoded %x, re-encoded %x", buf, got)
		}
	})
}

func TestConcurrentAppendForce(t *testing.T) {
	l := newLog(t)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn := l.AppendAssign(&Record{Kind: 1, Txn: base.TxnID(g)})
				if i%10 == 0 {
					l.ForceTo(lsn)
				}
			}
		}(g)
	}
	wg.Wait()
	l.Force()
	recs := l.Scan(0)
	if len(recs) != goroutines*perG {
		t.Fatalf("lost records: %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("stable log out of order at %d", i)
		}
	}
}

func TestGroupForce(t *testing.T) {
	media := storage.NewLogStore()
	media.ForceDelay = 0 // logic-only check
	l, _ := New(media)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lsn := l.AppendAssign(&Record{Kind: 1})
			l.ForceTo(lsn)
			if l.EOSL() < lsn {
				t.Errorf("ForceTo returned before stability: eosl=%d lsn=%d", l.EOSL(), lsn)
			}
		}()
	}
	wg.Wait()
}

// TestAppendBatchRacesForce: a generation's batch takes dense LSNs, each
// record keeping the Prev it was given, and a force racing the appends reports — and the log keeps through a
// crash — an end of the stable log that ends a batch, never one inside it.
// Run with -race.
func TestAppendBatchRacesForce(t *testing.T) {
	l := newLog(t)
	g := l.Generation()
	const batches = 2000
	ends := map[base.LSN]bool{0: true}
	var mu sync.Mutex // guards ends: a batch's end is known before its append returns
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			recs := make([]Record, 1+i%4)
			for j := range recs {
				recs[j] = Record{Kind: 1, Txn: base.TxnID(i), Prev: base.LSN(i)} // batch i starts above LSN i
			}
			mu.Lock()
			ends[l.NextLSN()+base.LSN(len(recs))-1] = true
			mu.Unlock()
			first := g.AppendBatch(recs)
			for j, r := range recs {
				if r.LSN != first+base.LSN(j) || r.Prev != base.LSN(i) {
					t.Errorf("batch %d record %d: LSN %d Prev %d, want %d and %d", i, j, r.LSN, r.Prev, first+base.LSN(j), i)
					return
				}
			}
		}
	}()
	onEnd := func(lsn base.LSN) bool {
		mu.Lock()
		defer mu.Unlock()
		return ends[lsn]
	}
	for forcing := true; forcing; {
		select {
		case <-done:
			forcing = false
		default:
		}
		g.Force()
		if eosl := l.EOSL(); !onEnd(eosl) {
			t.Fatalf("EOSL %d is inside a batch", eosl)
		}
	}
	g.AppendBatch([]Record{{Kind: 2}, {Kind: 2}, {Kind: 2}}) // lost whole
	l.Crash()
	if eosl, last := l.EOSL(), l.LastLSN(); eosl != last || !onEnd(eosl) {
		t.Fatalf("after a crash: EOSL %d, last %d, want one batch end", eosl, last)
	}
	recs := l.Scan(0)
	for i, r := range recs {
		if r.LSN != base.LSN(i+1) {
			t.Fatalf("record %d has LSN %d: the LSN space is not dense", i, r.LSN)
		}
	}
}

// TestGenerationEndsAtCrash: a Generation is refused from the Crash that ends
// it on — no LSN, no record in the successor's tail, and no force that would
// vouch for an LSN the successor has handed out again — while the Log's own
// methods and the next Generation go on.
func TestGenerationEndsAtCrash(t *testing.T) {
	l := newLog(t)
	g := l.Generation()
	stable := g.AppendAssign(&Record{Kind: 1})
	if !g.Live() || stable != 1 || !g.ForceTo(stable) || !g.Force() {
		t.Fatalf("a live generation was refused (lsn %d)", stable)
	}
	lost := g.AppendAssign(&Record{Kind: 1}) // volatile: dies in the crash
	l.Crash()
	next := l.NextLSN()
	if next != lost {
		t.Fatalf("LSN allocation resumes at %d, want the lost record's %d", next, lost)
	}
	if g.Live() || g.AppendAssign(&Record{Kind: 1}) != 0 || g.AppendBatch(make([]Record, 2)) != 0 || l.NextLSN() != next {
		t.Fatalf("an ended generation took an LSN (next %d -> %d)", next, l.NextLSN())
	}
	// The successor reuses the lost LSN and forces it: the dead generation's
	// ForceTo of "its" LSN must not report that as its own record's stability.
	h := l.Generation()
	if reused := h.AppendAssign(&Record{Kind: 2}); reused != lost || !h.ForceTo(reused) {
		t.Fatalf("the next generation got LSN %d, want %d, forced", reused, lost)
	}
	if g.ForceTo(lost) || g.Force() {
		t.Fatal("an ended generation's force reported success")
	}
	if rec := l.Get(lost); rec == nil || rec.Kind != 2 {
		t.Fatalf("LSN %d holds %+v, want the successor's record", lost, rec)
	}
	if lsn := l.AppendAssign(&Record{Kind: 3}); lsn != lost+1 {
		t.Fatalf("the Log's own append after a crash got LSN %d", lsn)
	}
}

// TestGenerationTruncate: a live generation truncates like the Log; one that
// Crash has ended discards nothing, and its successor's records least of all.
func TestGenerationTruncate(t *testing.T) {
	l := newLog(t)
	g := l.Generation()
	for i := 0; i < 3; i++ {
		g.AppendAssign(&Record{Kind: 1})
	}
	g.Force()
	if !g.Truncate(2) || l.StartLSN() != 2 {
		t.Fatalf("a live generation's truncation: log starts at %d, want 2", l.StartLSN())
	}
	l.Crash()
	h := l.Generation()
	succ := h.AppendAssign(&Record{Kind: 2})
	h.Force()
	if g.Truncate(succ+1) || l.StartLSN() != 2 {
		t.Fatalf("an ended generation truncated: log starts at %d, want 2", l.StartLSN())
	}
	if !h.Truncate(succ) || l.StartLSN() != succ {
		t.Fatalf("the successor's truncation: log starts at %d, want %d", l.StartLSN(), succ)
	}
}

// TestCrashUnderAGenerationsForce is the straddling commit at the log's
// level: the record is appended, its force is asleep on the media, the crash
// drops the record. The force returns false; it used to panic ("ForceTo
// beyond fully-stable log end") because the LSN it named no longer existed.
func TestCrashUnderAGenerationsForce(t *testing.T) {
	media := storage.NewLogStore()
	media.ForceDelay = 20 * time.Millisecond
	l, err := New(media)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Generation()
	lsn := g.AppendAssign(&Record{Kind: 1})
	forced := make(chan bool, 1)
	go func() { forced <- g.ForceTo(lsn) }()
	// The force sleeps before it looks at the log, so a crash any time in its
	// 20 ms — or before it has begun — drops the record first.
	time.Sleep(time.Millisecond)
	l.Crash()
	if <-forced {
		t.Fatal("a force that straddled the crash reported its record stable")
	}
	if l.EOSL() >= lsn || l.NextLSN() != lsn {
		t.Fatalf("the dropped record was forced after all (eosl %d, next %d, lsn %d)", l.EOSL(), l.NextLSN(), lsn)
	}
}

func BenchmarkAppend(b *testing.B) {
	l, _ := New(storage.NewLogStore())
	payload := bytes.Repeat([]byte("x"), 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AppendAssign(&Record{Kind: 1, Payload: payload})
	}
}

func BenchmarkGroupForce(b *testing.B) {
	for _, conc := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			media := storage.NewLogStore()
			l, _ := New(media)
			b.SetParallelism(conc)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lsn := l.AppendAssign(&Record{Kind: 1})
					l.ForceTo(lsn)
				}
			})
			b.ReportMetric(float64(media.Forces())/float64(b.N), "forces/op")
		})
	}
}
