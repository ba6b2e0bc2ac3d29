// Movie reviews: the Figure-2 / §6.3 cloud scenario end to end.
//
// Two updating TCs own disjoint user partitions (UId mod 2); a third TC
// serves movie-review reads as timestamp snapshots over versioned data.
// Movies and Reviews cluster by movie across DC0/DC1; Users and
// MyReviews cluster by user on DC2. Adding a review (W2) touches two DCs
// but stays a LOCAL transaction at the owner TC — no two-phase commit —
// and readers are never blocked by in-flight updates: a snapshot read
// takes no locks and sends nothing through its TC.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/cidr09/unbundled"
	"github.com/cidr09/unbundled/internal/workload"
)

func main() {
	// The placement declares Figure 2's whole deployment map — data
	// clustering AND the §6.1 update-ownership partition the TCs enforce:
	//   movies: dc=mod(2) owner=1; reviews: dc=mod(2) owner=mod2(2);
	//   users: dc=mod(2-2) owner=mod(2); myreviews: dc=mod(2-2) owner=mod(2)
	p := workload.MoviePlacement{MovieDCs: 2, UserDCs: 1, Movies: 10, Users: 10, UpdateTCs: 2}
	dep, err := unbundled.Open(unbundled.Options{
		TCs: 3, DCs: 3,
		Placement: p.Placement(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	// TC pins (1-based TC IDs): the updating TCs own disjoint user
	// partitions, the reader TC serves W1/W4-style reads. ReadOnly makes
	// every read a timestamp snapshot: lock-free, answered straight by
	// the DCs at the transaction's read timestamp.
	tc1 := unbundled.TxnOptions{TC: 1}
	tc1v := unbundled.TxnOptions{TC: 1, Versioned: true}
	tc2v := unbundled.TxnOptions{TC: 2, Versioned: true}
	reader := unbundled.TxnOptions{TC: 3, ReadOnly: true}

	// Seed a movie and two users (one per updating TC).
	must(client.RunTxn(ctx, tc1, func(x *unbundled.Txn) error {
		return x.Insert(workload.TableMovies, workload.MovieKey(1), []byte("The Kernel"))
	}))
	must(client.RunTxn(ctx, tc1v, func(x *unbundled.Txn) error {
		return x.Insert(workload.TableUsers, workload.UserKey(2), []byte("user-2 (even: TC1)"))
	}))
	must(client.RunTxn(ctx, tc2v, func(x *unbundled.Txn) error {
		return x.Insert(workload.TableUsers, workload.UserKey(3), []byte("user-3 (odd: TC2)"))
	}))

	// W2 at TC1: user 2 reviews movie 1 — Reviews row on a movie DC,
	// MyReviews row on the user DC, one local transaction.
	must(client.RunTxn(ctx, tc1v, func(x *unbundled.Txn) error {
		review := []byte("5 stars, very well-formed B-trees")
		if err := x.Insert(workload.TableReviews, workload.ReviewKey(1, 2), review); err != nil {
			return err
		}
		return x.Insert(workload.TableMyReviews, workload.MyReviewKey(2, 1), review)
	}))
	fmt.Println("W2: user 2 reviewed movie 1 (one txn, two DCs, zero 2PC)")

	// Leave an UNCOMMITTED review from user 3 in flight at TC2.
	inflight, err := client.Begin(ctx, tc2v)
	must(err)
	must(inflight.Insert(workload.TableReviews, workload.ReviewKey(1, 3),
		[]byte("draft: 1 star, pages too small")))

	// W1 at the reader TC: a snapshot scan sees committed reviews only —
	// the draft is invisible, and the read never blocks on TC2's
	// in-flight write (no locks, no TC round trip).
	must(client.RunTxn(ctx, reader, func(x *unbundled.Txn) error {
		prefix := workload.MovieKey(1) + "/"
		keys, vals, err := x.Scan(workload.TableReviews, prefix, prefix+"~", 0)
		if err != nil {
			return err
		}
		fmt.Printf("W1: movie 1 has %d committed review(s):\n", len(keys))
		for i := range keys {
			fmt.Printf("    %s -> %s\n", keys[i], vals[i])
		}
		if len(keys) != 1 {
			return fmt.Errorf("draft review leaked to a committed reader")
		}
		return nil
	}))

	// Not even the dirty-read flavor (§6.2.1) sees the draft: a
	// transaction's writes reach no DC before its commit, so no DC holds
	// anything of it to read.
	must(client.RunTxn(ctx, reader, func(x *unbundled.Txn) error {
		v, ok, err := x.ReadDirty(workload.TableReviews, workload.ReviewKey(1, 3))
		if err != nil {
			return err
		}
		fmt.Printf("dirty read of the draft before TC2 commits: found=%v\n", ok)
		if ok {
			return fmt.Errorf("the draft reached a DC before its commit: %q", v)
		}
		return nil
	}))

	// TC2 commits; a fresh snapshot taken afterwards sees the review —
	// Client.Snapshot is the multi-read convenience view.
	must(inflight.Commit())
	snap, err := client.Snapshot(ctx)
	must(err)
	prefix := workload.MovieKey(1) + "/"
	keys, _, err := snap.Scan(workload.TableReviews, prefix, prefix+"~", 0)
	must(err)
	fmt.Printf("after TC2 commit: %d committed reviews (snapshot @%d)\n", len(keys), snap.TS())
	must(snap.Close())

	// W4 at TC1: user 2's own reviews from the clustered MyReviews copy.
	must(client.RunTxn(ctx, tc1, func(x *unbundled.Txn) error {
		prefix := workload.UserKey(2) + "/"
		keys, _, err := x.Scan(workload.TableMyReviews, prefix, prefix+"~", 0)
		if err != nil {
			return err
		}
		fmt.Printf("W4: user 2 wrote %d review(s)\n", len(keys))
		return nil
	}))

	// Crash TC1; TC2 and the reader are unaffected (targeted page reset).
	dep.CrashTC(0)
	must(dep.RecoverTC(0))
	must(client.RunTxn(ctx, reader, func(x *unbundled.Txn) error {
		prefix := workload.MovieKey(1) + "/"
		keys, _, err := x.Scan(workload.TableReviews, prefix, prefix+"~", 0)
		if err != nil {
			return err
		}
		fmt.Printf("after TC1 crash+recovery: %d committed reviews still present\n", len(keys))
		if len(keys) != 2 {
			return fmt.Errorf("committed reviews lost in TC1 crash")
		}
		return nil
	}))
	fmt.Println("ok: Figure-2 scenario holds — no distributed transactions anywhere")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
