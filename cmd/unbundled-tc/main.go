// Command unbundled-tc runs one transactional component as a standalone
// process, committing transactions against unbundled-dc processes over
// TCP. Several unbundled-tc processes — one TC each, distinguished by
// -tc-id — share the same DCs under one -placement spec: the §6.1
// update-ownership partition is enforced by each TC (writes outside its
// partition abort with ErrWrongOwner), and each TC fences the DCs with
// its own incarnation epochs, so killing and restarting one process never
// disturbs the others.
//
// With -dir, the TC-log lives in that directory and survives kill -9:
// restarting with the same flags reopens the log and runs the §5.3.2
// restart protocol (analysis, epoch-fenced DC reset, redo) against the DCs
// before serving.
//
// Workload mode (default) runs -txns write transactions of -ops unique
// keys each — keys prefixed "w<tc-id>-", so fleet members generate
// disjoint key populations — then reads every committed key back and
// verifies its value. The workload rides out DC outages without
// intervention: the wire client resends and redials, and the TC resends
// its redo stream to a restarted DC, which refuses new work until it has.
//
//	unbundled-tc -dcs 127.0.0.1:7070 -txns 500 -ops 4 -verify
//
// A two-TC fleet over two DCs, ownership split by key range:
//
//	P='kv: dc=hash(2) owner=range(<w2:1,*:2)'
//	unbundled-tc -dcs :7071,:7072 -placement "$P" -tc-id 1 -tcs 2 -dir ./tc1
//	unbundled-tc -dcs :7071,:7072 -placement "$P" -tc-id 2 -tcs 2 -dir ./tc2
//
// REPL mode (-repl) reads commands from stdin, one autocommitted
// transaction per line:
//
//	put <table> <key> <value>
//	get <table> <key>
//	del <table> <key>
//	scan <table> <lo> <hi>
//	checkpoint | stats | exit
//
// checkpoint prints the redo scan start point (rssp) after it: a checkpoint
// proposes the point the previous one took, so the first after a start
// leaves it where it was, and two in a row make everything before the first
// stable.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/stats"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/workload"
)

func main() {
	dcs := flag.String("dcs", "127.0.0.1:7070", "comma-separated DC listen addresses")
	placementSpec := flag.String("placement", "", `placement spec ("<table>: dc=<axis> owner=<axis>; ..."); empty derives one: the table hash-placed over -dcs, ownership split over -tcs`)
	tcID := flag.Int("tc-id", 1, "this TC's ID, unique across every process sharing the DCs")
	tcs := flag.Int("tcs", 1, "total TCs in the fleet (IDs 1..tcs); ownership axes may name any of them")
	dir := flag.String("dir", "", "data directory for the TC-log (empty: in-memory, lost on exit); restart with the same flags to recover")
	table := flag.String("table", "kv", "table the workload writes")
	txns := flag.Int("txns", 200, "workload transactions to run")
	ops := flag.Int("ops", 4, "writes per transaction")
	valueBytes := flag.Int("value-bytes", 32, "payload size per write")
	verify := flag.Bool("verify", true, "read back every committed key and verify its value")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint the TC every N transactions (0: never); each proposes the redo scan start point the previous one took, so restart redoes up to 2N transactions")
	progressEvery := flag.Int("progress-every", 50, "print progress every N transactions")
	repl := flag.Bool("repl", false, "interactive mode: read commands from stdin")
	connectWait := flag.Duration("connect-wait", 10*time.Second, "how long to wait for the initial DC connections")
	admin := flag.String("admin", "", "HTTP admin listen address serving /stats, /healthz, /drain, /undrain (empty: no admin endpoint)")
	flag.Parse()

	addrs := splitList(*dcs)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "unbundled-tc: -dcs must name at least one address")
		os.Exit(1)
	}
	if *tcID < 1 || *tcID > *tcs {
		fmt.Fprintf(os.Stderr, "unbundled-tc: -tc-id %d outside the fleet 1..%d (-tcs)\n", *tcID, *tcs)
		os.Exit(1)
	}
	pl, err := buildPlacement(*placementSpec, *table, len(addrs), *tcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unbundled-tc:", err)
		os.Exit(1)
	}
	dep, err := core.New(core.Options{
		TCs:       1,
		FleetTCs:  *tcs,
		DCAddrs:   addrs,
		Placement: pl,
		TCConfig: func(int) tc.Config {
			return tc.Config{ID: base.TCID(*tcID), Dir: *dir}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unbundled-tc:", err)
		os.Exit(1)
	}
	defer dep.Close()
	fmt.Printf("unbundled-tc: tc %d of %d, placement %q\n", *tcID, *tcs, pl.String())

	ctx, cancel := context.WithTimeout(context.Background(), *connectWait)
	err = dep.WaitConnected(ctx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "unbundled-tc: no DC connection within %v: %v\n", *connectWait, err)
		os.Exit(1)
	}
	fmt.Printf("unbundled-tc: connected to %d DC(s): %s\n", len(addrs), *dcs)

	// Fleet-assembly cross-check: every DC the placement's data axes can
	// route to must actually serve the tables routed there. A misassembled
	// fleet fails loudly here (ErrPlacementMismatch) instead of aborting
	// transactions with ErrUnknownTable at run time.
	{
		vctx, vcancel := context.WithTimeout(context.Background(), *connectWait)
		err := dep.ValidatePlacement(vctx)
		vcancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "unbundled-tc:", err)
			os.Exit(1)
		}
	}

	if *admin != "" {
		adm, err := stats.Serve(*admin, dep.StatsRegistry(), dep.TCs[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "unbundled-tc: admin:", err)
			os.Exit(1)
		}
		defer adm.Close()
		fmt.Printf("unbundled-tc: admin listening on %s\n", adm.Addr())
	}

	// A -dir holding a previous incarnation's log: the DCs are reachable
	// now, so run the §5.3.2 restart (analysis, epoch-fenced reset, redo)
	// before serving anything.
	if dep.TCs[0].NeedsRecovery() {
		fmt.Printf("unbundled-tc: restarting tc %d from its log in %s\n", *tcID, *dir)
		if err := dep.RecoverTC(0); err != nil {
			fmt.Fprintf(os.Stderr, "unbundled-tc: restart from %s: %v\n", *dir, err)
			os.Exit(1)
		}
		st := dep.TCs[0].Stats()
		fmt.Printf("unbundled-tc: tc %d restarted: epoch=%d redo-ops=%d\n",
			*tcID, dep.TCs[0].Epoch(), st.RedoOps)
	}

	if *repl {
		runREPL(dep, *table)
		return
	}
	ok := runWorkload(dep, workloadConfig{
		table: *table, tcID: *tcID, txns: *txns, ops: *ops, valueBytes: *valueBytes,
		verify: *verify, checkpointEvery: *checkpointEvery, progressEvery: *progressEvery,
	})
	ws := dep.RemoteWireStats()
	st := dep.TCs[0].Stats()
	fmt.Printf("unbundled-tc: commits=%d aborts=%d redo-ops=%d checkpoints=%d epoch=%d wire-calls=%d resends=%d reconnects=%d\n",
		st.Commits, st.Aborts, st.RedoOps, st.Checkpoints, dep.TCs[0].Epoch(), ws.Calls, ws.Resends, ws.Reconnects)
	if !ok {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildPlacement parses -placement, or derives a spec: the workload table
// hash-placed across the DCs, update ownership split along the workload's
// own "w<tc-id>-" key prefixes so every fleet member owns exactly the keys
// it generates, plus a catch-all so REPL sessions can touch ad-hoc tables.
func buildPlacement(spec, table string, dcs, tcs int) (*placement.Placement, error) {
	if spec != "" {
		return placement.Parse(spec)
	}
	dcAxis := fmt.Sprintf("hash(%d)", dcs)
	owner := "1"
	if tcs > 1 {
		// The range grammar wants lexicographically ascending split keys,
		// and the "w<id>-" prefixes do not sort numerically past 9 TCs
		// ("w10-" < "w2-"): sort the prefixes and emit each boundary with
		// the preceding prefix's owner, so any fleet size derives a valid
		// spec whose partition is exactly the prefix populations.
		prefixes := make([]string, tcs)
		for w := 1; w <= tcs; w++ {
			prefixes[w-1] = fmt.Sprintf("w%d-", w)
		}
		sort.Strings(prefixes)
		idOf := func(p string) int {
			id, err := strconv.Atoi(p[1 : len(p)-1])
			if err != nil {
				panic(err) // unreachable: prefixes are built two lines up
			}
			return id
		}
		var ents strings.Builder
		for i := 1; i < len(prefixes); i++ {
			fmt.Fprintf(&ents, "<%s:%d,", prefixes[i], idOf(prefixes[i-1]))
		}
		owner = fmt.Sprintf("range(%s*:%d)", ents.String(), idOf(prefixes[len(prefixes)-1]))
	}
	return placement.Parse(fmt.Sprintf("%s: dc=%s owner=%s; *: dc=%s owner=any",
		table, dcAxis, owner, dcAxis))
}

type workloadConfig struct {
	table           string
	tcID            int
	txns, ops       int
	valueBytes      int
	verify          bool
	checkpointEvery int
	progressEvery   int
}

// runWorkload commits cfg.txns transactions of unique-key writes and then
// verifies them against the workload.Unique oracle: a committed
// transaction's writes must all be present with exactly their values,
// whatever the DC suffered in between. Keys carry the TC ID, so fleet
// members running this workload concurrently write disjoint populations
// — pair that with a range-ownership placement (owner=range(<w2:1,*:2))
// and the §6.1 partition lines up with the key prefixes.
func runWorkload(dep *core.Deployment, cfg workloadConfig) bool {
	ctx := context.Background()
	client := dep.Client()
	o := &workload.Unique{Table: cfg.table, Prefix: fmt.Sprintf("w%d-", cfg.tcID),
		Ops: cfg.ops, ValueBytes: cfg.valueBytes}
	start := time.Now()
	committed := 0
	for i := 0; i < cfg.txns; i++ {
		seq := uint64(i)
		err := client.RunTxnAt(ctx, cfg.table, o.Key(seq, 0), core.TxnOptions{}, func(x *tc.Txn) error {
			return o.Write(x, seq)
		})
		if err != nil {
			// Only transactions that reported commit must be found: one
			// rejected typed (e.g. ErrDraining with no peer TC to re-route
			// to) never promised durability, and an ambiguous one may have
			// landed. Either way the committed != txns check below fails
			// the run as a whole.
			if errors.Is(err, tc.ErrCommitAmbiguous) {
				o.Maybe(seq)
			}
			fmt.Printf("unbundled-tc: txn %d failed: %v\n", i, err)
			continue
		}
		committed++
		o.Commit(seq)
		if cfg.progressEvery > 0 && (i+1)%cfg.progressEvery == 0 {
			fmt.Printf("unbundled-tc: committed %d/%d\n", i+1, cfg.txns)
		}
		if cfg.checkpointEvery > 0 && (i+1)%cfg.checkpointEvery == 0 {
			if _, err := dep.TCs[0].Checkpoint(ctx); err != nil {
				fmt.Printf("unbundled-tc: checkpoint after txn %d: %v\n", i, err)
			}
		}
	}
	fmt.Printf("unbundled-tc: workload done: %d/%d committed in %v\n", committed, cfg.txns, time.Since(start).Round(time.Millisecond))
	if !cfg.verify {
		return committed == cfg.txns
	}
	var bad []string
	err := client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) (err error) {
		bad, err = o.Verify(x)
		return err
	})
	for _, line := range bad {
		fmt.Println("unbundled-tc:", line)
	}
	if err != nil {
		fmt.Printf("unbundled-tc: %v\n", err)
		return false
	}
	if len(bad) > 0 || committed != cfg.txns {
		fmt.Printf("unbundled-tc: VERIFY FAILED: %d lost or corrupt writes, %d/%d committed\n", len(bad), committed, cfg.txns)
		return false
	}
	fmt.Printf("unbundled-tc: VERIFY OK: %d committed transactions, %d keys intact\n", committed, committed*cfg.ops)
	return true
}

func runREPL(dep *core.Deployment, defaultTable string) {
	ctx := context.Background()
	client := dep.Client()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Printf("unbundled-tc: repl ready (default table %q)\n", defaultTable)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch cmd := fields[0]; cmd {
		case "exit", "quit":
			return
		case "stats":
			ws := dep.RemoteWireStats()
			st := dep.TCs[0].Stats()
			fmt.Printf("commits=%d aborts=%d epoch=%d wire-calls=%d resends=%d reconnects=%d\n",
				st.Commits, st.Aborts, dep.TCs[0].Epoch(), ws.Calls, ws.Resends, ws.Reconnects)
		case "checkpoint":
			rssp, err := dep.TCs[0].Checkpoint(ctx)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("rssp=%d\n", rssp)
		case "put", "get", "del", "scan":
			if err := replTxn(ctx, client, cmd, fields[1:]); err != nil {
				fmt.Println("error:", err)
			}
		default:
			fmt.Printf("unknown command %q (put/get/del/scan/checkpoint/stats/exit)\n", cmd)
		}
	}
}

func replTxn(ctx context.Context, client *core.Client, cmd string, args []string) error {
	return client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
		switch cmd {
		case "put":
			if len(args) != 3 {
				return fmt.Errorf("usage: put <table> <key> <value>")
			}
			return x.Upsert(args[0], args[1], []byte(args[2]))
		case "get":
			if len(args) != 2 {
				return fmt.Errorf("usage: get <table> <key>")
			}
			v, ok, err := x.Read(args[0], args[1])
			if err != nil {
				return err
			}
			if !ok {
				fmt.Println("(not found)")
				return nil
			}
			fmt.Printf("%s\n", v)
			return nil
		case "del":
			if len(args) != 2 {
				return fmt.Errorf("usage: del <table> <key>")
			}
			return x.Delete(args[0], args[1])
		case "scan":
			if len(args) != 3 {
				return fmt.Errorf("usage: scan <table> <lo> <hi>")
			}
			keys, vals, err := x.Scan(args[0], args[1], args[2], 0)
			if err != nil {
				return err
			}
			for i := range keys {
				fmt.Printf("%s = %s\n", keys[i], vals[i])
			}
			fmt.Printf("(%d rows)\n", len(keys))
			return nil
		}
		return fmt.Errorf("unreachable")
	})
}
