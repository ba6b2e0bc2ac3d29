// Package servicetest is the TC:DC contract of §4.2, written once and run
// against every transport a data component is reached through: Run plays a
// TC against a base.Service and checks, case by case, what the paper asks
// of the DC behind it. Like net/http/httptest it is a test helper that lives
// outside a _test file, so that each transport's tests can run it.
//
// The suite stamps TC ids, epochs and LSNs itself and sends every operation
// through PerformBatch. It observes the DC through the interface alone:
// result codes and values, what a control call returns, and what a read
// sees after a Restart.
package servicetest

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// Harness is one DC reached through one transport.
type Harness struct {
	// Svc is the service under test: the DC itself or a client of it.
	Svc base.Service
	// DC is the data component behind Svc. The suite creates its tables
	// through it, and reads them there when Svc has no Catalog.
	DC *dc.DC
	// Restart crashes and recovers DC and brings the transport back.
	Restart func(t *testing.T)
}

// Run runs every case as a subtest named after the clause it enforces, each
// against a harness of its own from open. A case is a function of the
// subtest and its harness; to add one, add it to the table.
func Run(t *testing.T, open func(t *testing.T) Harness) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T, h Harness)
	}{
		{"§4.2.1 control calls", controlCalls},
		{"catalog", catalog},
		{"§4.2.1 abandoned checkpoint", abandonedCheckpoint},
		{"§4.2.1 checkpoint without an end of stable log", checkpointWithoutEOSL},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, open(t)) })
	}
}

var ctx = context.Background()

// perform sends ops to table "t" as one batch of TC 1 at epoch, and
// requires every result to answer its op with code.
func perform(t *testing.T, h Harness, epoch base.Epoch, code base.Code, ops ...base.Op) {
	t.Helper()
	batch := make([]*base.Op, len(ops))
	for i := range ops {
		o := ops[i]
		o.TC, o.Epoch, o.Table = 1, epoch, "t"
		batch[i] = &o
	}
	for i, r := range h.Svc.PerformBatch(ctx, batch) {
		if r.Code != code || r.LSN != ops[i].LSN {
			t.Fatalf("epoch %d, %v: %+v, want %v", epoch, batch[i], r, code)
		}
	}
}

func upsert(lsn base.LSN, key string) base.Op {
	return base.Op{Kind: base.OpUpsert, LSN: lsn, Key: key, Value: []byte(key)}
}

func must(t *testing.T, what string, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: %v, want %v", what, err, want)
	}
}

// controlCalls drives the three control calls through a DC restart and a TC
// restart. Checkpoint(rssp) ends the contract below rssp, so the DC keeps
// both writes though the TC resends nothing. BeginRestart's epoch fences the
// TC's dead incarnation: its ops, its marks and its control calls are
// refused, and its fenced op leaves the LSN free. EndRestart closes the
// bracket, after which the new epoch's writes execute.
func controlCalls(t *testing.T, h Harness) {
	must(t, "CreateTable", h.DC.CreateTable("t"), nil)
	perform(t, h, 1, base.CodeOK, upsert(1, "a"), upsert(2, "b"))
	h.Svc.EndOfStableLog(1, 1, 2)
	h.Svc.LowWaterMark(1, 1, 2)
	must(t, "Checkpoint", h.Svc.Checkpoint(ctx, 1, 1, 3), nil)

	h.Restart(t)
	must(t, "BeginRestart", h.Svc.BeginRestart(ctx, 1, 2, 2), nil)
	perform(t, h, 2, base.CodeStaleDC, upsert(3, "c"))
	must(t, "a dead epoch's Checkpoint", h.Svc.Checkpoint(ctx, 1, 1, 4), base.ErrStaleEpoch)
	must(t, "a dead epoch's EndRestart", h.Svc.EndRestart(ctx, 1, 1), base.ErrStaleEpoch)
	must(t, "EndRestart", h.Svc.EndRestart(ctx, 1, 2), nil)
	// The dead epoch's marks ride its late write. Taken, they would make the
	// new epoch's LSN 4 look applied once LSN 3 executes.
	h.Svc.EndOfStableLog(1, 1, 9)
	h.Svc.LowWaterMark(1, 1, 9)
	perform(t, h, 1, base.CodeStaleEpoch, upsert(3, "zombie"))
	perform(t, h, 2, base.CodeOK, upsert(3, "c"), upsert(4, "d"))

	// TC 2 has never written, so owes the DC nothing and reads at once.
	for key, found := range map[string]bool{"a": true, "b": true, "c": true, "d": true, "zombie": false} {
		r := h.Svc.PerformBatch(ctx, []*base.Op{{TC: 2, Epoch: 1, Kind: base.OpRead, Table: "t", Key: key}})[0]
		if r.Found != found || found && string(r.Value) != key {
			t.Fatalf("%s reads %+v, want found %v", key, r, found)
		}
	}
}

// catalog asks the DC's tables through the transport, before there are any
// and after a restart. The DC lists them in no fixed order.
func catalog(t *testing.T, h Harness) {
	tables := func() []string {
		cl, ok := h.Svc.(interface {
			Catalog(context.Context) ([]string, error)
		})
		if !ok {
			return h.DC.Tables()
		}
		got, err := cl.Catalog(ctx)
		must(t, "Catalog", err, nil)
		return got
	}
	if got := tables(); len(got) != 0 {
		t.Fatalf("catalog of a DC with no table: %v", got)
	}
	for _, name := range []string{"users", "kv"} {
		must(t, "CreateTable", h.DC.CreateTable(name), nil)
	}
	for _, when := range []string{"created", "restarted"} {
		if when == "restarted" {
			h.Restart(t)
		}
		if got := tables(); !slices.Equal(got, []string{"kv", "users"}) {
			t.Fatalf("catalog once %s: %v, want kv and users", when, got)
		}
	}
}

// abandonedCheckpoint: a checkpoint whose caller's deadline has passed
// returns ErrCancelled, and nothing of it stays behind at the DC: the next
// checkpoint, under a live context, completes.
func abandonedCheckpoint(t *testing.T, h Harness) {
	must(t, "CreateTable", h.DC.CreateTable("t"), nil)
	perform(t, h, 1, base.CodeOK, upsert(1, "a"))
	past, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	must(t, "a checkpoint past its deadline", h.Svc.Checkpoint(past, 1, 1, 2), base.ErrCancelled)
	live, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	must(t, "a checkpoint after the abandoned one", h.Svc.Checkpoint(live, 1, 1, 2), nil)
}

// checkpointWithoutEOSL: a TC sends an operation only once it is stable in
// its log, so a checkpoint waits for no end of stable log: over a page that
// holds an operation no EndOfStableLog ever covered, it returns at once, and
// the page is stable — the write outlives a restart though the TC resends
// nothing.
func checkpointWithoutEOSL(t *testing.T, h Harness) {
	must(t, "CreateTable", h.DC.CreateTable("t"), nil)
	perform(t, h, 1, base.CodeOK, upsert(1, "a"))
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	must(t, "Checkpoint", h.Svc.Checkpoint(ctx, 1, 1, 2), nil)
	h.Restart(t)
	r := h.Svc.PerformBatch(ctx, []*base.Op{{TC: 2, Epoch: 1, Kind: base.OpRead, Table: "t", Key: "a"}})[0]
	if !r.Found || string(r.Value) != "a" {
		t.Fatalf("a checkpointed write after a restart: %+v", r)
	}
}
