package tc

import (
	"context"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestCommitBatchLogBytes counts what the repo benchmark's write transaction
// makes durable: the TC-log bytes (storage.LogStore.AppendedBytes, framing
// not counted) of a redo-only commit batch of four Upserts of 11-byte keys
// and 64-byte values into table "kv", with 3-byte LSNs and transaction ids.
// Each op record is a 4-byte header (LSN and kind: no transaction id, no
// chain) and an 81-byte payload (head, table, key, value); the commit record
// is a 7-byte header (LSN, kind, transaction id) and a zero timestamp:
// 4 x 85 + 8 = 348 B. A versioned transaction's commit record holds its
// 9-byte commit timestamp, which its op records no longer repeat:
// 4 x 85 + 16 = 356 B. The encoding that gave every op record a transaction
// id and a link, and a versioned one its timestamp, wrote 365 and 409 B; the
// one before it, which carried the wire's whole operation, an undo marker, a
// full-width Prev, an empty NextUndo and a payload length, 415 and 459 B.
func TestCommitBatchLogBytes(t *testing.T) {
	const (
		want          = 348
		wantVersioned = 356
	)
	p := newBenchPair(t)
	for p.tc.log.LastLSN() < 1<<14 {
		p.writeTxn(t, false)
	}
	inc := p.tc.inc.Load()
	inc.nextTxn.Store(1 << 14) // so the next transaction's id takes three bytes
	media := p.tc.log.Media()
	for _, c := range []struct {
		versioned bool
		want      uint64
	}{{false, want}, {true, wantVersioned}} {
		before := media.AppendedBytes()
		x := p.tc.Begin(context.Background(), TxnOptions{Versioned: c.versioned})
		for i := 0; i < 4; i++ {
			if err := x.Upsert("kv", p.keys[i*2503], p.val); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		if last := p.tc.log.LastLSN(); last >= 1<<21 || x.id < 1<<14 || x.id >= 1<<21 {
			t.Fatalf("LSN %d, transaction %d: not three bytes each", last, x.id)
		}
		if c.versioned {
			rec := p.tc.log.Get(p.tc.log.LastLSN())
			if ts, err := decodeCommit(rec.Payload); err != nil || base.UvarintLen(uint64(ts)) != 9 {
				t.Fatalf("commit timestamp %d (%v): not nine bytes", ts, err)
			}
		}
		got := media.AppendedBytes() - before
		t.Logf("versioned %v: %d B", c.versioned, got)
		if got != c.want {
			t.Errorf("versioned %v: a commit of four Upserts logs %d B, want %d", c.versioned, got, c.want)
		}
	}
}
