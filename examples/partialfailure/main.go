// Partial failure: a tour of §5.3. In a monolithic kernel, "log and cache
// manager fail together"; unbundling makes partial failures possible and
// this example shows both directions:
//
//   - DC failure: the DC loses its cache; after DC-log recovery rebuilds
//     well-formed structures, the TC resends from its redo scan start
//     point and nothing is lost.
//   - TC failure: the TC loses its unforced log tail and everything
//     volatile — here between a commit's force and its ship, so the DC has
//     not seen the commit's writes. A TC ships only what it has forced, so
//     the DC has nothing to undo, and the restarted TC's redo delivers the
//     commit from its stable log.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"github.com/cidr09/unbundled"
)

func main() {
	dep, err := unbundled.Open(unbundled.Options{
		TCs: 1, DCs: 1, Tables: []string{"kv"},
		DCConfig: func(int) unbundled.DCConfig {
			return unbundled.DCConfig{PageBytes: 1024}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()

	// Committed base data, checkpointed so it is stable at the DC. A
	// checkpoint proposes the mark its predecessor took, so it takes two:
	// the first takes its mark, the second proposes it.
	upsert := func(from, to int, val string) {
		must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
			for i := from; i < to; i++ {
				if err := x.Upsert("kv", fmt.Sprintf("key%04d", i), []byte(val)); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	for i := 0; i < 200; i += 50 {
		upsert(i, i+50, "stable")
	}
	if _, err := dep.TCs[0].Checkpoint(ctx); err != nil { // takes its mark
		log.Fatal(err)
	}
	rssp, err := dep.TCs[0].Checkpoint(ctx) // proposes it
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded 200 keys, checkpointed twice (contract below RSSP %d released)\n", rssp)

	// --- DC failure -----------------------------------------------------
	for i := 0; i < 50; i += 10 {
		upsert(i, i+10, "post-ckpt")
	}
	dep.CrashDC(0)
	fmt.Println("DC crashed: cache and volatile watermarks gone")
	must(dep.RecoverDC(0))
	st := dep.TCs[0].Stats()
	fmt.Printf("DC recovered: TC resent %d logical operations from its RSSP\n", st.RedoOps)
	must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		v, ok, err := x.Read("kv", "key0000")
		if err != nil || !ok || string(v) != "post-ckpt" {
			return fmt.Errorf("lost update after DC crash: %q %v %v", v, ok, err)
		}
		return nil
	}))

	// --- TC failure -----------------------------------------------------
	// A transaction's writes reach the DC only at its commit, once its log
	// batch is forced. The DC drains, so the commit forces and then parks in
	// its ship, and the TC crashes there: the commit is stable in the TC's
	// log, and the DC has not seen it.
	winner, err := client.Begin(ctx, unbundled.TxnOptions{})
	must(err)
	must(winner.Update("kv", "key0001", []byte("forced-tail")))
	must(winner.Insert("kv", "late-key", []byte("boo")))
	dc, tc := dep.DCs[0], dep.TCs[0]
	dc.Drain()
	sent := tc.Stats().OpsSent
	commit := make(chan error, 1)
	go func() { commit <- winner.Commit() }()
	for tc.Stats().OpsSent == sent {
		time.Sleep(time.Millisecond) // the ship's first attempt follows the force
	}
	dep.CrashTC(0)
	if err := <-commit; !errors.Is(err, unbundled.ErrCommitAmbiguous) {
		log.Fatalf("commit under the TC crash: %v, want an ambiguous outcome", err)
	}
	dc.Undrain()
	fmt.Println("TC crashed between a commit's force and its ship; the DC never saw the commit")
	redo, dups := tc.Stats().RedoOps, dc.Stats().DupSkips
	must(dep.RecoverTC(0))
	redo, dups = tc.Stats().RedoOps-redo, dc.Stats().DupSkips-dups
	fmt.Printf("TC recovered: its redo sent %d logical operations from its RSSP; the DC applied %d and skipped %d it held\n",
		redo, redo-dups, dups)
	if redo-dups != 2 {
		log.Fatalf("the redo applied %d operations, want the commit's 2", redo-dups)
	}
	must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		v, _, _ := x.Read("kv", "key0001")
		if string(v) != "forced-tail" {
			return fmt.Errorf("the forced commit's update is missing: %q", v)
		}
		if _, ok, _ := x.Read("kv", "late-key"); !ok {
			return fmt.Errorf("the forced commit's insert is missing")
		}
		return nil
	}))
	fmt.Println("ok: the forced commit survived its TC, delivered by restart's redo")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
