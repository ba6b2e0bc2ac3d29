// Partial failure: a tour of §5.3. In a monolithic kernel, "log and cache
// manager fail together"; unbundling makes partial failures possible and
// this example shows both directions:
//
//   - DC failure: the DC loses its cache; after DC-log recovery rebuilds
//     well-formed structures, the TC resends from its redo scan start
//     point and nothing is lost.
//   - TC failure: the TC loses its unforced log tail; the DC resets
//     exactly the cached pages whose abstract LSNs include lost
//     operations (not the whole cache), and the restarted TC redoes and
//     undoes as needed.
package main

import (
	"context"
	"fmt"
	"log"

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

	// Committed base data, checkpointed so it is stable at the DC.
	for i := 0; i < 200; i++ {
		must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
			return x.Upsert("kv", fmt.Sprintf("key%04d", i), []byte("stable"))
		}))
	}
	if _, err := dep.TCs[0].Checkpoint(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("seeded 200 keys, checkpointed (contract below RSSP released)")

	// --- DC failure -----------------------------------------------------
	for i := 0; i < 50; i++ {
		must(client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
			return x.Upsert("kv", fmt.Sprintf("key%04d", i), []byte("post-ckpt"))
		}))
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
	// An uncommitted transaction whose operations reached the DC cache (its
	// own dirty read ships its queued writes) but whose log records were
	// never forced.
	ghost, err := client.Begin(ctx, unbundled.TxnOptions{})
	must(err)
	must(ghost.Update("kv", "key0001", []byte("lost-tail")))
	must(ghost.Insert("kv", "ghost-key", []byte("boo")))
	_, _, err = ghost.ReadDirty("kv", "ghost-key")
	must(err)
	cachedBefore := dep.DCs[0].Pool().Cached()
	dep.CrashTC(0)
	fmt.Printf("TC crashed holding an uncommitted txn; DC cache has %d pages\n", cachedBefore)
	must(dep.RecoverTC(0))
	ds := dep.DCs[0].Stats()
	fmt.Printf("TC recovered: DC reset %d page(s) (targeted — not the whole cache), undoing %d lost operation(s)\n",
		ds.ResetPages, ds.RolledBack)
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
