// Partial failure: a tour of §5.3. In a monolithic kernel, "log and cache
// manager fail together"; unbundling makes partial failures possible and
// this example shows both directions:
//
//   - DC failure: the DC loses its cache; after DC-log recovery rebuilds
//     well-formed structures, the TC resends from its redo scan start
//     point and nothing is lost.
//   - TC failure: the TC loses its unforced log tail — here a commit whose
//     writes the DC has applied but whose log batch was never forced; the
//     DC resets exactly the cached pages whose abstract LSNs include lost
//     operations (not the whole cache), and the restarted TC redoes what
//     its stable log holds.
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
		// A slow log force (an fsync): the TC failure below lands between
		// a commit's ship and its force.
		TCConfig: func(int) unbundled.TCConfig {
			return unbundled.TCConfig{ForceDelay: 100 * time.Millisecond}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()

	// Committed base data, checkpointed so it is stable at the DC.
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
	if _, err := dep.TCs[0].Checkpoint(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("seeded 200 keys, checkpointed (contract below RSSP released)")

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
	// A transaction's writes reach the DC only at its commit, shipped before
	// its log batch is forced. The TC crashes in between: the DC cache holds
	// operations whose log records were never forced.
	ghost, err := client.Begin(ctx, unbundled.TxnOptions{})
	must(err)
	must(ghost.Update("kv", "key0001", []byte("lost-tail")))
	must(ghost.Insert("kv", "ghost-key", []byte("boo")))
	commit := make(chan error, 1)
	go func() { commit <- ghost.Commit() }()
	for shipped := false; !shipped; time.Sleep(time.Millisecond) {
		// A dirty reader takes no lock, so it sees the shipped write.
		must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) (err error) {
			_, shipped, err = x.ReadDirty("kv", "ghost-key")
			return err
		}))
	}
	cachedBefore := dep.DCs[0].Pool().Cached()
	dep.CrashTC(0)
	if err := <-commit; !errors.Is(err, unbundled.ErrCommitAmbiguous) {
		log.Fatalf("commit under the TC crash: %v, want an ambiguous outcome", err)
	}
	fmt.Printf("TC crashed between a commit's ship and its force; DC cache has %d pages\n", cachedBefore)
	must(dep.RecoverTC(0))
	ds := dep.DCs[0].Stats()
	fmt.Printf("TC recovered: DC reset %d page(s) (targeted — not the whole cache), undoing %d lost operation(s)\n",
		ds.ResetPages, ds.RolledBack)
	if ds.ResetPages == 0 || ds.RolledBack == 0 {
		log.Fatal("the restart reset nothing: the crash missed the window between ship and force")
	}
	must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		v, _, _ := x.Read("kv", "key0001")
		if string(v) != "post-ckpt" {
			return fmt.Errorf("lost-tail update survived: %q", v)
		}
		if _, ok, _ := x.Read("kv", "ghost-key"); ok {
			return fmt.Errorf("ghost insert survived")
		}
		return nil
	}))
	fmt.Println("ok: lost operations rolled away; committed state intact")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
