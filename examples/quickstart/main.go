// Quickstart: open a one-TC/one-DC unbundled kernel, run transactions
// through the deployment client, crash both components, recover, and
// observe that committed data survived while the uncommitted transaction
// vanished.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/cidr09/unbundled"
)

func main() {
	dep, err := unbundled.Open(unbundled.Options{
		TCs: 1, DCs: 1,
		Tables: []string{"accounts"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()

	// A committed transfer.
	if err := client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		if err := x.Insert("accounts", "alice", []byte("100")); err != nil {
			return err
		}
		return x.Insert("accounts", "bob", []byte("50"))
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed: alice=100 bob=50")

	// An uncommitted scribble, alive at the DC but never durable.
	ghost, err := client.Begin(ctx, unbundled.TxnOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := ghost.Update("accounts", "alice", []byte("0")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("in flight: alice=0 (uncommitted)")

	// Both components fail, then recover: DC-log recovery first, then the
	// TC resends its logged operations. The loser never reached the DC: it
	// never committed, so nothing of it left the TC.
	dep.CrashAll()
	if err := dep.RecoverAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("crashed and recovered")

	if err := client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		a, _, err := x.Read("accounts", "alice")
		if err != nil {
			return err
		}
		b, _, err := x.Read("accounts", "bob")
		if err != nil {
			return err
		}
		fmt.Printf("after recovery: alice=%s bob=%s\n", a, b)
		if string(a) != "100" {
			return fmt.Errorf("durability broken: alice=%s", a)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok: committed state survived; the uncommitted update did not")
}
