package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/harness"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/workload"
)

// E6 reproduces §5.3 partial failures. Part (a): DC-crash recovery work
// grows with operations since the last checkpoint. Part (b): a TC crash
// resets only the cached pages holding its lost operations — compared
// against the "draconian" alternative of dropping the whole cache (which
// the paper rejects).
func E6(s Scale) *harness.Report {
	t := harness.NewReport()

	// (a) DC crash: vary ops since checkpoint.
	for _, since := range []int{s.Keys / 8, s.Keys / 2} {
		dep := e6Checkpointed(s)
		ctx := context.Background()
		client := dep.Client()
		tcx := dep.TCs[0]
		base := tcx.Stats().RedoOps
		for i := 0; i < since; i++ {
			must(client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
				return x.Upsert("kv", workload.KVKey(i), []byte("post-ckpt"))
			}))
		}
		cached := dep.DCs[0].Pool().Cached()
		dep.CrashDC(0)
		t0 := time.Now()
		must(dep.RecoverDC(0))
		el := time.Since(t0)
		res := harness.Result{Name: fmt.Sprintf("dc-crash/opsSinceCkpt=%d", since),
			Txns: uint64(since), Elapsed: el}
		res.Extra = []harness.Col{
			{Name: "cachedPages", Value: fmt.Sprintf("%d", cached)},
			{Name: "resetPages", Value: "-"},
			{Name: "rolledBack", Value: "-"},
			{Name: "redoOps", Value: fmt.Sprintf("%d", tcx.Stats().RedoOps-base)},
			{Name: "recovery", Value: el.Round(10 * time.Microsecond).String()},
		}
		t.Add(res)
		dep.Close()
	}

	// (b) TC crash: targeted reset vs full cache drop on identical states.
	for _, mode := range []string{"targeted-reset", "full-drop"} {
		dep := e6Checkpointed(s)
		ctx := context.Background()
		tcx := dep.TCs[0]
		// An uncommitted transaction whose operations reached the DC cache
		// but whose log records were never forced: exactly the lost-tail
		// state of §5.3.2. Only the pages it touched carry lost state.
		ghost := tcx.Begin(ctx, tc.TxnOptions{})
		for i := 0; i < 32; i++ {
			must(ghost.Upsert("kv", workload.KVKey(i*7), []byte("lost-tail")))
		}
		cached := dep.DCs[0].Pool().Cached()
		t0 := time.Now()
		if mode == "targeted-reset" {
			dep.CrashTC(0)
			must(dep.RecoverTC(0))
		} else {
			// The paper's rejected alternative: turn the partial failure
			// into a complete one — drop the whole DC cache and redo.
			dep.CrashTC(0)
			dep.CrashDC(0)
			must(dep.DCs[0].Recover())
			must(dep.RecoverTC(0))
		}
		el := time.Since(t0)
		st := dep.DCs[0].Stats()
		res := harness.Result{Name: "tc-crash/" + mode, Txns: 32, Elapsed: el}
		reset := fmt.Sprintf("%d", st.ResetPages)
		if mode == "full-drop" {
			reset = fmt.Sprintf("%d (all)", cached)
		}
		res.Extra = []harness.Col{
			{Name: "cachedPages", Value: fmt.Sprintf("%d", cached)},
			{Name: "resetPages", Value: reset},
			{Name: "rolledBack", Value: fmt.Sprintf("%d", st.RolledBack)},
			{Name: "redoOps", Value: fmt.Sprintf("%d", tcx.Stats().RedoOps)},
			{Name: "recovery", Value: el.Round(10 * time.Microsecond).String()},
		}
		t.Add(res)
		dep.Close()
	}
	return t
}

// e6Checkpointed is the state every E6 row starts from: 1 TC x 1 DC on
// small pages, half the key space loaded, everything checkpointed.
func e6Checkpointed(s Scale) *core.Deployment {
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		DCConfig: func(int) dc.Config { return dc.Config{PageBytes: 1024} }})
	must(err)
	ctx := context.Background()
	for i := 0; i < s.Keys/2; i++ {
		must(dep.Client().RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", workload.KVKey(i), make([]byte, s.ValueSize))
		}))
	}
	_, err = dep.TCs[0].Checkpoint(ctx)
	must(err)
	return dep
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
