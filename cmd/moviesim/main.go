// Command moviesim runs the Figure-2 movie-site deployment interactively:
// two updating TCs partitioned by user, one reader TC, Movies/Reviews
// partitioned by movie over two DCs and Users/MyReviews over a third.
// It drives the W1–W4 mix (internal/workload defines the transactions) for
// the requested duration, optionally crashing components along the way,
// and prints per-workload statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/workload"
)

func main() {
	dur := flag.Duration("duration", 3*time.Second, "how long to run the mix")
	users := flag.Int("users", 500, "number of users")
	movies := flag.Int("movies", 100, "number of movies")
	crash := flag.Bool("crash", false, "crash TC1 and DC0 mid-run and recover")
	flag.Parse()

	p := workload.MoviePlacement{MovieDCs: 2, UserDCs: 1, Movies: *movies, Users: *users, UpdateTCs: 2}
	dep, err := core.New(core.Options{
		TCs: p.UpdateTCs + 1, DCs: p.MovieDCs + p.UserDCs,
		Placement: p.Placement(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer dep.Close()

	fmt.Printf("deployment: %d updating TCs + 1 reader TC over %d DCs\n", p.UpdateTCs, len(dep.DCs))
	ctx := context.Background()
	client := dep.Client()
	if err := workload.Seed(ctx, client, p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("seeded %d movies, %d users\n", p.Movies, p.Users)

	var w1, w2, w3, w4, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g) + 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := rnd.Intn(p.Users)
				m := rnd.Intn(p.Movies)
				var err error
				switch rnd.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // W1 dominates (reads are most common, §6.3)
					_, err = workload.W1(ctx, client, p, m)
					w1.Add(1)
				case 6, 7:
					err = workload.W2(ctx, client, p, u, m, []byte(fmt.Sprintf("review m%d u%d", m, u)))
					w2.Add(1)
				case 8:
					err = workload.W3(ctx, client, p, u,
						[]byte(fmt.Sprintf("profile-%d@%d", u, time.Now().UnixNano())))
					w3.Add(1)
				case 9:
					_, err = workload.W4(ctx, client, p, u)
					w4.Add(1)
				}
				if err != nil {
					errs.Add(1)
				}
			}
		}(g)
	}

	if *crash {
		time.Sleep(*dur / 3)
		fmt.Println("!! crashing TC1 (owner of even users) — odd users keep going;" +
			" fresh snapshots stall until TC1's safe timestamp resumes")
		dep.CrashTC(0)
		time.Sleep(*dur / 6)
		if err := dep.RecoverTC(0); err != nil {
			fmt.Fprintln(os.Stderr, "recover TC1:", err)
			os.Exit(1)
		}
		fmt.Println("!! TC1 recovered (targeted DC page resets; other TCs undisturbed)")
		time.Sleep(*dur / 6)
		fmt.Println("!! crashing DC0 (half the movies)")
		dep.CrashDC(0)
		time.Sleep(*dur / 6)
		if err := dep.RecoverDC(0); err != nil {
			fmt.Fprintln(os.Stderr, "recover DC0:", err)
			os.Exit(1)
		}
		fmt.Println("!! DC0 recovered (DC-log replay, then TC redo resend)")
		time.Sleep(*dur / 6)
	} else {
		time.Sleep(*dur)
	}
	close(stop)
	wg.Wait()

	total := w1.Load() + w2.Load() + w3.Load() + w4.Load()
	fmt.Printf("\ncompleted %d transactions in %v (%d failed/retried away)\n",
		total, *dur, errs.Load())
	fmt.Printf("  W1 obtain reviews for movie : %7d\n", w1.Load())
	fmt.Printf("  W2 add movie review         : %7d\n", w2.Load())
	fmt.Printf("  W3 update user profile      : %7d\n", w3.Load())
	fmt.Printf("  W4 obtain reviews by user   : %7d\n", w4.Load())
	for i, dci := range dep.DCs {
		st := dci.Stats()
		fmt.Printf("  DC%d: %d operations, %d snapshot reads, %d idempotent skips, %d fenced\n",
			i, st.Performs, st.SnapshotReads, st.DupSkips, st.StaleEpochs)
	}
	rtc := dep.TCs[p.ReaderTC()-1]
	fmt.Printf("  reader TC: %d snapshots, %d locks acquired, %d ops sent\n",
		rtc.Stats().Snapshots, rtc.Locks().Stats().Acquired, rtc.Stats().OpsSent)
}
