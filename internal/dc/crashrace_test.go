package dc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestCrashRacingPerformIsUnavailable drives writers on several TCs through
// Perform while the DC is crashed and recovered underneath them. A crash may
// look like silence or like unavailable; it must never answer an operation
// on an existing table with a permanent refusal, which the TC would ack into
// its low-water mark and report as a failed logged operation. A few dozen
// operations are let through between crashes, or every reply would be
// unavailable and the race would never open.
func TestCrashRacingPerformIsUnavailable(t *testing.T) {
	d := newDC(t, Config{})
	const writers, cycles, between = 4, 2000, 32
	var (
		stop    atomic.Bool
		landed  atomic.Int64
		wg      sync.WaitGroup
		replies [writers]map[base.Code]int
	)
	for w := 0; w < writers; w++ {
		replies[w] = map[base.Code]int{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tc := base.TCID(w + 1)
			for lsn := base.LSN(1); !stop.Load(); lsn++ {
				res := d.Perform(context.Background(), &base.Op{TC: tc, LSN: lsn, Kind: base.OpUpsert,
					Table: "t", Key: fmt.Sprintf("w%d-%02d", w, lsn%64), Value: []byte("v")})
				replies[w][res.Code]++
				if res.Code == base.CodeOK {
					landed.Add(1)
				}
			}
		}(w)
	}
	for c := 0; c < cycles; c++ {
		for mark := landed.Load(); landed.Load() < mark+between; {
			runtime.Gosched()
		}
		d.Crash()
		if err := d.Recover(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	total := map[base.Code]int{}
	for w := range replies {
		for code, n := range replies[w] {
			total[code] += n
		}
	}
	for code, n := range total {
		switch code {
		case base.CodeOK, base.CodeUnavailable, base.CodeStaleEpoch:
		default:
			t.Errorf("%d replies carried code %v; a crash must look like unavailable", n, code)
		}
	}
	if total[base.CodeUnavailable] == 0 {
		t.Fatalf("no operation ever met the DC down (%v): the race never opened", total)
	}
}
