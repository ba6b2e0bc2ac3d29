// Command soak runs a chaos soak against a real fleet: unbundled-dc OS
// processes serving stable media over TCP, an in-process fleet of TCs
// driving open-loop load at them, and three kinds of injected trouble —
// wire-level frame loss (DialConfig.DropProb), kill -9/restart of DC
// processes, and operator drains through the real HTTP admin endpoint.
//
// The soak is an oracle, not a load generator: every committed
// transaction's unique keys are remembered and read back at the end, so
// "no lost committed writes" is checked exactly, whatever the fleet
// suffered in between. Metrics-level invariants ride along, read from the
// same /stats endpoints an operator would curl: commits flowed, kills
// were actually ridden out by the resend/redial path (resends and
// reconnects nonzero), and every drained TC quiesced within the bound.
//
//	soak -dc-bin ./bin/unbundled-dc -duration 60s
//
// Exit status 0 and a final "SOAK OK" line mean every invariant held.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/stats"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
	"github.com/cidr09/unbundled/internal/workload"
)

func main() {
	dcBin := flag.String("dc-bin", "unbundled-dc", "path to the unbundled-dc binary")
	dcCount := flag.Int("dcs", 2, "DC processes to run")
	tcCount := flag.Int("tcs", 2, "TCs to run (in this process); >1 lets drains re-route load")
	duration := flag.Duration("duration", 60*time.Second, "how long to drive load")
	load := flag.Int("load", 150, "target transactions per second (open loop)")
	opsPer := flag.Int("ops", 2, "writes per transaction")
	dropProb := flag.Float64("drop-prob", 0.02, "injected outbound frame-loss probability per TC:DC connection (0: none)")
	killEvery := flag.Duration("kill-every", 15*time.Second, "kill -9 and restart a DC process this often (0: never)")
	drainEvery := flag.Duration("drain-every", 12*time.Second, "drain+undrain a TC through its admin endpoint this often (0: never)")
	quiesceBound := flag.Duration("quiesce-bound", 15*time.Second, "a drained TC must quiesce within this bound")
	dir := flag.String("dir", "", "working directory for DC stable media (empty: a temp dir, removed on success)")
	seed := flag.Int64("seed", 1, "chaos schedule seed")
	flag.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"-load", *load}, {"-ops", *opsPer}, {"-dcs", *dcCount}, {"-tcs", *tcCount}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "usage: soak: %s must be at least 1, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}

	if err := run(soakConfig{
		dcBin: *dcBin, dcs: *dcCount, tcs: *tcCount, duration: *duration,
		load: *load, ops: *opsPer, dropProb: *dropProb,
		killEvery: *killEvery, drainEvery: *drainEvery, quiesceBound: *quiesceBound,
		dir: *dir, seed: *seed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "soak: SOAK FAILED:", err)
		os.Exit(1)
	}
}

type soakConfig struct {
	dcBin        string
	dcs, tcs     int
	duration     time.Duration
	load, ops    int
	dropProb     float64
	killEvery    time.Duration
	drainEvery   time.Duration
	quiesceBound time.Duration
	dir          string
	seed         int64
}

// dcProc is one supervised unbundled-dc process. Restarting after a kill
// reuses the same listen and data directory, so the new incarnation is the
// same DC as far as the TCs' redial supervision is concerned.
type dcProc struct {
	idx        int
	dir        string
	addr       string // service listen address, fixed across restarts
	cmd        *exec.Cmd
	stdoutDone chan struct{}

	mu        sync.Mutex
	adminAddr string // admin endpoint address, re-parsed per incarnation
}

// admin returns the current incarnation's admin address; restart replaces
// it from the chaos goroutine while the queue watchdog reads it.
func (p *dcProc) admin() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.adminAddr
}

func run(cfg soakConfig) error {
	if cfg.dir == "" {
		tmp, err := os.MkdirTemp("", "soak-")
		if err != nil {
			return err
		}
		cfg.dir = tmp
		defer os.RemoveAll(tmp)
	}

	// --- fleet assembly -------------------------------------------------
	dcs := make([]*dcProc, cfg.dcs)
	defer func() {
		for _, p := range dcs {
			if p != nil && p.cmd != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	}()
	for i := range dcs {
		p, err := startDC(cfg.dcBin, i, filepath.Join(cfg.dir, fmt.Sprintf("dc%d", i)), "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("start dc %d: %w", i, err)
		}
		dcs[i] = p
		fmt.Printf("soak: dc%d on %s (admin %s)\n", i, p.addr, p.adminAddr)
	}
	addrs := make([]string, len(dcs))
	for i, p := range dcs {
		addrs[i] = p.addr
	}

	// Ownerless placement: any TC may update any key, so draining one TC
	// legally re-routes its load to the others.
	pl := placement.MustParse(fmt.Sprintf("kv: dc=hash(%d) owner=any", cfg.dcs))
	dep, err := core.New(core.Options{
		TCs:        cfg.tcs,
		DCAddrs:    addrs,
		Placement:  pl,
		TCConfig:   func(i int) tc.Config { return tc.Config{ID: base.TCID(i + 1)} },
		DialConfig: wire.DialConfig{DropProb: cfg.dropProb, DropSeed: cfg.seed},
	})
	if err != nil {
		return err
	}
	defer dep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = dep.WaitConnected(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	if err := dep.ValidatePlacement(context.Background()); err != nil {
		return err
	}

	// One admin endpoint per TC, sharing one registry: exactly the shape a
	// one-TC-per-process fleet exposes, compressed into one soak binary.
	reg := dep.StatsRegistry()
	admins := make([]*stats.Admin, cfg.tcs)
	for i, target := range dep.Drainables() {
		adm, err := stats.Serve("127.0.0.1:0", reg, target)
		if err != nil {
			return err
		}
		defer adm.Close()
		admins[i] = adm
		fmt.Printf("soak: tc%d admin on %s\n", i+1, adm.Addr())
	}

	// --- open-loop load -------------------------------------------------
	o := &workload.Unique{Table: "kv", Prefix: "s-", Ops: cfg.ops}
	var committedTxns, ambiguousTxns, failedTxns, shedTxns atomic.Uint64
	client := dep.Client()
	stopLoad := make(chan struct{})
	var inflight sync.WaitGroup
	sem := make(chan struct{}, 256)
	var seq atomic.Uint64
	runOne := func(s uint64) {
		defer inflight.Done()
		defer func() { <-sem }()
		err := client.RunTxn(context.Background(), core.TxnOptions{MaxAttempts: 64}, func(x *tc.Txn) error {
			return o.Write(x, s)
		})
		switch {
		case err == nil:
			committedTxns.Add(1)
			o.Commit(s)
		case errors.Is(err, tc.ErrCommitAmbiguous):
			ambiguousTxns.Add(1)
			o.Maybe(s)
		default:
			failedTxns.Add(1)
		}
	}
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		interval := time.Second / time.Duration(cfg.load)
		if interval <= 0 {
			interval = time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stopLoad:
				return
			case <-tick.C:
				select {
				case sem <- struct{}{}:
					inflight.Add(1)
					go runOne(seq.Add(1))
				default:
					// Open loop with a concurrency cap: when the fleet is
					// riding out an outage, offered load is shed, not queued.
					shedTxns.Add(1)
				}
			}
		}
	}()

	// --- chaos ----------------------------------------------------------
	// One scheduler goroutine runs kill and drain actions sequentially, so
	// a quiesce bound is never measured against a concurrently-injected DC
	// outage in the same instant (loss injection stays always-on).
	rnd := rand.New(rand.NewSource(cfg.seed))
	var kills, drains int
	chaosErrCh := make(chan error, 1)
	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		killC, drainC := neverTick(), neverTick()
		if cfg.killEvery > 0 {
			t := time.NewTicker(cfg.killEvery)
			defer t.Stop()
			killC = t.C
		}
		if cfg.drainEvery > 0 {
			t := time.NewTicker(cfg.drainEvery)
			defer t.Stop()
			drainC = t.C
		}
		for {
			select {
			case <-stopChaos:
				return
			case <-killC:
				i := rnd.Intn(len(dcs))
				fmt.Printf("soak: chaos: kill -9 dc%d\n", i)
				if err := dcs[i].restart(cfg.dcBin); err != nil {
					select {
					case chaosErrCh <- fmt.Errorf("restart dc%d: %w", i, err):
					default:
					}
					return
				}
				kills++
			case <-drainC:
				i := rnd.Intn(len(admins))
				fmt.Printf("soak: chaos: drain tc%d\n", i+1)
				if err := drainCycle(admins[i].Addr(), cfg.quiesceBound); err != nil {
					select {
					case chaosErrCh <- fmt.Errorf("drain tc%d: %w", i+1, err):
					default:
					}
					return
				}
				drains++
			}
		}
	}()

	// --- worker-queue watchdog --------------------------------------------
	// The DC server runtime promises bounded queueing: depth can never
	// exceed workers x queue-depth, whatever the load does, because the
	// excess is refused as typed overloads instead. Sample every DC's
	// /stats wire group throughout the soak and fail the moment the
	// promise breaks.
	queueErrCh := make(chan error, 1)
	var maxQueueDepth uint64
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
				for _, p := range dcs {
					snap, err := fetchStats(p.admin())
					if err != nil {
						continue // DC mid-restart; the kill arm owns that window
					}
					w := snap["wire"]
					c, d := w["worker_queue_cap"], w["worker_queue_depth"]
					if d > maxQueueDepth {
						maxQueueDepth = d
					}
					if c > 0 && d > c {
						select {
						case queueErrCh <- fmt.Errorf(
							"dc%d worker queues exceed their cap: depth=%d cap=%d", p.idx, d, c):
						default:
						}
						return
					}
				}
			}
		}
	}()

	// --- run, then wind down --------------------------------------------
	fmt.Printf("soak: driving ~%d txn/s for %v over %d TCs, %d DCs (drop-prob %.3f)\n",
		cfg.load, cfg.duration, cfg.tcs, cfg.dcs, cfg.dropProb)
	var chaosErr error
	select {
	case <-time.After(cfg.duration):
	case chaosErr = <-chaosErrCh:
	}
	close(stopChaos)
	<-chaosDone
	if chaosErr == nil {
		select {
		case chaosErr = <-chaosErrCh:
		default:
		}
	}
	close(stopLoad)
	<-loadDone
	inflight.Wait()
	close(stopWatch)
	<-watchDone
	if chaosErr == nil {
		select {
		case chaosErr = <-queueErrCh:
		default:
		}
	}
	if chaosErr != nil {
		return chaosErr
	}
	fmt.Printf("soak: load done: committed=%d ambiguous=%d failed=%d shed=%d kills=%d drains=%d\n",
		committedTxns.Load(), ambiguousTxns.Load(), failedTxns.Load(), shedTxns.Load(), kills, drains)

	// --- invariants -----------------------------------------------------
	// 1. No lost committed writes: every key of every committed transaction
	// reads back with its exact value; ambiguous commits may have landed or
	// not, but a landed one must be intact (workload.Unique is the oracle).
	var bad []string
	err = client.RunTxn(context.Background(), core.TxnOptions{MaxAttempts: 64}, func(x *tc.Txn) (err error) {
		bad, err = o.Verify(x)
		return err
	})
	for _, line := range bad {
		fmt.Println("soak:", line)
	}
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d lost or corrupt committed writes", len(bad))
	}

	// 2. Metrics invariants, read from the same endpoints an operator has:
	// the TC-side registry over HTTP, and each DC process's /stats.
	snap, err := fetchStats(admins[0].Addr())
	if err != nil {
		return err
	}
	commits := uint64(0)
	for g, vals := range snap {
		if strings.HasPrefix(g, "tc") {
			commits += vals["commits"]
		}
	}
	if commits == 0 {
		return fmt.Errorf("/stats reports zero commits across the TC fleet")
	}
	if _, ok := snap["wire"]; !ok {
		return fmt.Errorf("/stats has no wire group")
	}
	ws := dep.RemoteWireStats()
	if kills > 0 && (ws.Resends == 0 || ws.Reconnects == 0) {
		return fmt.Errorf("%d DC kills but resends=%d reconnects=%d — the outage was not ridden out by the wire layer",
			kills, ws.Resends, ws.Reconnects)
	}
	if cfg.dropProb > 0 && ws.Resends == 0 {
		return fmt.Errorf("drop-prob %.3f but zero resends — loss injection is not reaching the wire", cfg.dropProb)
	}
	for _, p := range dcs {
		dsnap, err := fetchStats(p.admin())
		if err != nil {
			return fmt.Errorf("dc%d stats: %w", p.idx, err)
		}
		if dsnap["dc"]["performs"] == 0 {
			return fmt.Errorf("dc%d /stats reports zero performs", p.idx)
		}
		// 3. Bounded, drained worker queues: the server pool must report a
		// real cap and, with the load long stopped, an empty queue — work
		// admitted is work finished, not work parked.
		w := dsnap["wire"]
		if w["worker_queue_cap"] == 0 {
			return fmt.Errorf("dc%d /stats reports no worker queue capacity", p.idx)
		}
		deadline := time.Now().Add(5 * time.Second)
		for w["worker_queue_depth"] != 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("dc%d worker queues not drained after load stopped: depth=%d",
					p.idx, w["worker_queue_depth"])
			}
			time.Sleep(100 * time.Millisecond)
			if dsnap, err = fetchStats(p.admin()); err != nil {
				return fmt.Errorf("dc%d stats: %w", p.idx, err)
			}
			w = dsnap["wire"]
		}
	}

	fmt.Printf("soak: SOAK OK: commits=%d resends=%d reconnects=%d kills=%d drains=%d max-queue-depth=%d lost=0\n",
		commits, ws.Resends, ws.Reconnects, kills, drains, maxQueueDepth)
	return nil
}

// neverTick returns a channel no ticker feeds: a disabled chaos arm.
func neverTick() <-chan time.Time { return make(chan time.Time) }

// startDC spawns one unbundled-dc and waits for both readiness lines
// (service and admin), parsing the bound addresses so ":0" listens work.
func startDC(bin string, idx int, dir, listen string) (*dcProc, error) {
	cmd := exec.Command(bin,
		"-listen", listen, "-admin", "127.0.0.1:0",
		"-tables", "kv", "-dir", dir, "-name", fmt.Sprintf("dc%d", idx))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &dcProc{idx: idx, dir: dir, cmd: cmd, stdoutDone: make(chan struct{})}
	addrCh := make(chan [2]string, 1)
	go func() {
		defer close(p.stdoutDone)
		var svc, admin string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fields := strings.Fields(line)
			switch {
			case strings.Contains(line, "admin listening on"):
				admin = fields[len(fields)-1]
			case strings.Contains(line, " listening on "):
				// "unbundled-dc: dcN listening on ADDR (tables: ...)"
				for i, f := range fields {
					if f == "on" && i+1 < len(fields) {
						svc = fields[i+1]
					}
				}
			}
			if svc != "" && admin != "" {
				select {
				case addrCh <- [2]string{svc, admin}:
				default:
				}
				svc = "" // report once per incarnation
			}
		}
	}()
	select {
	case a := <-addrCh:
		p.addr, p.adminAddr = a[0], a[1]
		return p, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("dc %d: no readiness line within 10s", idx)
	}
}

// restart kill -9s the process and brings up a new incarnation on the
// same listen address over the same stable media. The freshly-released
// port can linger briefly, so the respawn retries.
func (p *dcProc) restart(bin string) error {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	<-p.stdoutDone
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		np, err := startDC(bin, p.idx, p.dir, p.addr)
		if err == nil {
			p.cmd, p.stdoutDone = np.cmd, np.stdoutDone
			p.mu.Lock()
			p.adminAddr = np.adminAddr
			p.mu.Unlock()
			return nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}

// adminHealth mirrors the stats.Admin health body.
type adminHealth struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Quiesced bool   `json:"quiesced"`
}

// drainCycle drains one TC through its real admin endpoint, polls
// /healthz until it reports quiesced (failing the soak if the bound is
// exceeded), holds the drain briefly, then undrains. Undrain always runs —
// a failed cycle must not leave the TC shedding load for the rest of the
// soak, or every later invariant measures a degraded fleet.
func drainCycle(adminAddr string, bound time.Duration) error {
	defer func() {
		resp, err := http.Get("http://" + adminAddr + "/undrain")
		if err == nil {
			resp.Body.Close()
		}
	}()
	resp, err := http.Get("http://" + adminAddr + "/drain")
	if err != nil {
		return err
	}
	resp.Body.Close()
	deadline := time.Now().Add(bound)
	for {
		resp, err := http.Get("http://" + adminAddr + "/healthz")
		if err != nil {
			return err
		}
		var h adminHealth
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if !h.Draining {
			return fmt.Errorf("drain did not take: /healthz says %q", h.Status)
		}
		if h.Quiesced {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not quiesced within %v", bound)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Hold the quiesced state long enough that new load provably flowed
	// around the drained TC in the meantime.
	time.Sleep(500 * time.Millisecond)
	return nil
}

// fetchStats GETs /stats and decodes the two-level registry snapshot.
func fetchStats(adminAddr string) (map[string]map[string]uint64, error) {
	resp, err := http.Get("http://" + adminAddr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap map[string]map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap, nil
}
