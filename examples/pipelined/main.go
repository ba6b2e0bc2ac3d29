// Shipping logged writes: the same multi-op write transactions over the
// same misbehaving wire (real propagation delay, loss, duplication), once
// with inline shipping (the default) and once with TCConfig.Pipeline — then
// a TC crash mid-transaction to show recovery still holds. In both modes a
// write call only queues the write; the transaction's next barrier (here
// its commit) appends the op records and ships them as one batch per DC.
// Inline, the transaction's own goroutine sends the batch and waits for it;
// pipelined, the barrier hands it to a per-DC worker and the transaction
// waits at a commit-time ack barrier. Neither mode makes a round trip per
// write, so the two times read alike: a transaction here is two round trips
// (writes, finalizes) plus the log force either way. Both modes run the same
// delivery routine and resend contract; Pipeline only moves it onto a
// worker, which lets the force overlap the acks and a cancelled Commit
// return early. It is the one shipping knob: batch size and watermark period
// are constants of the TC.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/cidr09/unbundled"
)

func open(pipeline bool) *unbundled.Deployment {
	dep, err := unbundled.Open(unbundled.Options{
		TCs: 1, DCs: 1, Tables: []string{"kv"},
		TCConfig: func(int) unbundled.TCConfig {
			return unbundled.TCConfig{Pipeline: pipeline}
		},
		Network: &unbundled.NetworkConfig{
			Delay:    200 * time.Microsecond,
			LossProb: 0.01,
			DupProb:  0.01,
			Seed:     1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	return dep
}

func run(pipeline bool) time.Duration {
	dep := open(pipeline)
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	const txns, ops = 50, 4
	start := time.Now()
	for i := 0; i < txns; i++ {
		if err := client.RunTxn(ctx, unbundled.TxnOptions{Versioned: true}, func(x *unbundled.Txn) error {
			for j := 0; j < ops; j++ {
				key := fmt.Sprintf("k%03d", (i*ops+j)%64)
				if err := x.Upsert("kv", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start)
}

func main() {
	inline := run(false)
	pipe := run(true)
	fmt.Printf("50 txns x 4 writes over a 200µs lossy wire:\n")
	fmt.Printf("  inline shipping (one caller-run batch per barrier): %v\n", inline.Round(time.Millisecond))
	fmt.Printf("  pipelined shipping (per-DC worker, ack barrier):    %v\n", pipe.Round(time.Millisecond))

	// Crash the TC with a transaction still uncommitted, one write past a
	// barrier (logged and shipped — the unlocked read is the barrier) and one
	// still queued: restart must keep committed data and drop the loser.
	dep := open(true)
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	if err := client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		return x.Insert("kv", "committed", []byte("keep"))
	}); err != nil {
		log.Fatal(err)
	}
	loser, err := client.Begin(ctx, unbundled.TxnOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := loser.Insert("kv", "ghost", []byte("drop")); err != nil {
		log.Fatal(err)
	}
	if v, ok, err := loser.ReadDirty("kv", "ghost"); err != nil || !ok || string(v) != "drop" {
		log.Fatalf("own write past the barrier: %q %v %v", v, ok, err)
	}
	if err := loser.Insert("kv", "queued", []byte("drop")); err != nil {
		log.Fatal(err)
	}
	dep.CrashTC(0)
	if err := dep.RecoverTC(0); err != nil {
		log.Fatal(err)
	}
	if err := client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		if v, ok, _ := x.Read("kv", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data lost: %q %v", v, ok)
		}
		for _, key := range []string{"ghost", "queued"} {
			if _, ok, _ := x.Read("kv", key); ok {
				return fmt.Errorf("uncommitted write %q survived recovery", key)
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("crash mid-transaction: committed data survived, loser rolled back")
}
