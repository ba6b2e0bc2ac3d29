package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
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

var roundTripRecords = []*Record{
	{LSN: 1, Kind: 2, Txn: 3, Prev: 0, NextUndo: 0, Payload: []byte("hello")},
	{LSN: 1 << 40, Kind: 255, Txn: 1 << 50, Prev: 99, NextUndo: 98},
	{LSN: 7},
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
		r := &Record{LSN: base.LSN(lsn), Kind: kind, Txn: base.TxnID(txn),
			Prev: base.LSN(prev), NextUndo: base.LSN(nu), Payload: payload}
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

func TestRecordDecodeTruncated(t *testing.T) {
	r := &Record{LSN: 123456, Kind: 9, Txn: 7, Payload: bytes.Repeat([]byte("p"), 30)}
	buf := r.Append(nil)
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeRecord(buf[:i]); !errors.Is(err, errCorrupt) {
			t.Fatalf("truncation at %d: err = %v", i, err)
		}
	}
	if _, err := DecodeRecord(append(buf, 0)); !errors.Is(err, errCorrupt) {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// FuzzDecodeRecord: DecodeRecord never panics, and whatever it accepts is
// exactly one record — it re-encodes to the bytes it was decoded from.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range roundTripRecords {
		buf := r.Append(nil)
		for i := 0; i <= len(buf); i++ {
			f.Add(buf[:i])
		}
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
	if g.Live() || g.AppendAssign(&Record{Kind: 1}) != 0 || l.NextLSN() != next {
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
