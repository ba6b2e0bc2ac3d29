package dc

import (
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
)

// dirtyOf returns, for every cached page holding an operation of tc no
// write-back has made stable, the LSN that first dirtied it.
func dirtyOf(d *DC, tc base.TCID) []base.LSN {
	var first []base.LSN
	d.Pool().Pages(func(pg *page.Page) {
		pg.L.RLock()
		if lsn, ok := pg.FirstDirty[tc]; ok && pg.Dirty {
			first = append(first, lsn)
		}
		pg.L.RUnlock()
	})
	return first
}

// TestEvictingCheckpointWritesBackEveryDirtyPage: a checkpoint writes back
// the pages its TC first dirtied below newRSSP, and leaves one first dirtied
// at or above it dirty — unless the pool has evicted since the TC's previous
// checkpoint: then it writes back every dirty page of the TC, which a miss
// would otherwise write back on its path.
func TestEvictingCheckpointWritesBackEveryDirtyPage(t *testing.T) {
	for _, evicting := range []bool{false, true} {
		t.Run(fmt.Sprintf("evicting=%v", evicting), func(t *testing.T) {
			cfg := Config{PageBytes: 256}
			if evicting {
				cfg.CacheCapacity = 8
			}
			d := newDC(t, cfg)
			key := func(i int) string { return fmt.Sprintf("key%04d", i) }
			const keys = 400
			lsn := 0
			for ; lsn < keys; lsn++ {
				put(t, d, lsn+1, key(lsn), "v")
			}
			checkpointAll(t, d, lsn)
			before := d.Pool().Stats().Evictions
			// Rewrites over the lower keys' leaves, then one write on the
			// leaf of the last key, which none of them shares.
			for i := 0; i < keys*3/4; i += 7 {
				lsn++
				put(t, d, lsn, key(i), "w")
			}
			lsn++
			put(t, d, lsn, key(keys-1), "above")
			above := base.LSN(lsn)
			if evicted := d.Pool().Stats().Evictions > before; evicted != evicting {
				t.Fatalf("the pool evicted %v since the checkpoint, want %v; test vacuous", evicted, evicting)
			}
			d.LowWaterMark(1, 1, above)
			if err := d.Checkpoint(context.Background(), 1, 1, above); err != nil {
				t.Fatal(err)
			}
			left := dirtyOf(d, 1)
			switch {
			case evicting && len(left) != 0:
				t.Fatalf("a checkpoint while the pool evicts left pages first dirtied at %v dirty", left)
			case !evicting && (len(left) != 1 || left[0] != above):
				t.Fatalf("a checkpoint to %d left pages first dirtied at %v dirty, want the one at %d", above, left, above)
			}
			// A second checkpoint with no eviction since proposes the rule
			// alone: nothing is left below it.
			if err := d.Checkpoint(context.Background(), 1, 1, above+1); err != nil {
				t.Fatal(err)
			}
			if left := dirtyOf(d, 1); len(left) != 0 {
				t.Fatalf("pages first dirtied at %v outlived a checkpoint above them", left)
			}
		})
	}
}
