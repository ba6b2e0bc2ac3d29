package unbundled_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildBinaries compiles unbundled-dc and unbundled-tc into dir and
// returns their paths.
func buildBinaries(t *testing.T) (dcBin, tcBin string) {
	t.Helper()
	bin := t.TempDir()
	dcBin = filepath.Join(bin, "unbundled-dc")
	tcBin = filepath.Join(bin, "unbundled-tc")
	for path, pkg := range map[string]string{dcBin: "./cmd/unbundled-dc", tcBin: "./cmd/unbundled-tc"} {
		cmd := exec.Command("go", "build", "-o", path, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return dcBin, tcBin
}

// TestE2ETCPKillRestart is the cross-process acceptance test, the local
// twin of the CI e2e job: build the real binaries, run a TC process
// against a DC process over real TCP, SIGKILL the DC mid-workload,
// restart it on the same address and data dir, and require that every
// committed transaction's writes survive and the TC rode the outage out
// on its own (resend + redial + automatic redo replay — no manual
// intervention).
//
// Skipped under -short (it builds binaries and runs for seconds) and on
// Windows (no SIGKILL).
func TestE2ETCPKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	if runtime.GOOS == "windows" {
		t.Skip("e2e: SIGKILL semantics are POSIX-only")
	}

	dcBin, tcBin := buildBinaries(t)

	dataDir := filepath.Join(t.TempDir(), "dc0")
	startDC := func(listen string) (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(dcBin, "-listen", listen, "-tables", "kv", "-dir", dataDir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		// Readiness line: "unbundled-dc: <name> listening on <addr> ...".
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			for i, f := range fields {
				if f == "on" && i+1 < len(fields) {
					go io.Copy(io.Discard, out) // keep the pipe drained
					return cmd, fields[i+1]
				}
			}
		}
		t.Fatalf("unbundled-dc produced no listening line (scanner err: %v)", sc.Err())
		return nil, ""
	}

	dc1, addr := startDC("127.0.0.1:0")

	const totalTxns = 5000
	tc := exec.Command(tcBin,
		"-dcs", addr, "-txns", fmt.Sprint(totalTxns), "-ops", "4",
		"-checkpoint-every", "500", "-progress-every", "100", "-verify")
	tcOut, err := tc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	tc.Stderr = os.Stderr
	if err := tc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Process.Kill() })

	var mu sync.Mutex
	var output bytes.Buffer
	progressed := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(tcOut)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			output.WriteString(line + "\n")
			mu.Unlock()
			if !signalled && strings.Contains(line, "committed 300/") {
				close(progressed)
				signalled = true
			}
		}
		if !signalled {
			close(progressed)
		}
	}()

	// Kill -9 the DC once the workload is demonstrably mid-stream.
	select {
	case <-progressed:
	case <-time.After(60 * time.Second):
		t.Fatal("workload made no progress")
	}
	if err := dc1.Process.Kill(); err != nil { // SIGKILL
		t.Fatalf("kill dc: %v", err)
	}
	dc1.Wait()
	time.Sleep(300 * time.Millisecond) // let the outage bite mid-stream
	startDC(addr)                      // same address, same data dir

	// Drain the pipe before reaping: os/exec's Wait closes it and could
	// discard the trailing VERIFY OK / stats lines this test greps for.
	done := make(chan error, 1)
	go func() { <-scanDone; done <- tc.Wait() }()
	select {
	case err := <-done:
		mu.Lock()
		out := output.String()
		mu.Unlock()
		if err != nil {
			t.Fatalf("unbundled-tc failed: %v\n%s", err, out)
		}
		if !strings.Contains(out, "VERIFY OK") {
			t.Fatalf("no VERIFY OK in output:\n%s", out)
		}
		if m := regexp.MustCompile(`reconnects=(\d+)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
			t.Fatalf("TC reports no reconnect after the DC restart:\n%s", out)
		}
		if m := regexp.MustCompile(`resends=(\d+)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
			t.Fatalf("TC reports no resends despite a mid-stream kill:\n%s", out)
		}
	case <-time.After(120 * time.Second):
		mu.Lock()
		out := output.String()
		mu.Unlock()
		t.Fatalf("unbundled-tc did not finish after the DC restart; output so far:\n%s", out)
	}
}

// TestE2EMultiTCKillRestart is the §6.1 scale-out acceptance test, the
// local twin of the CI multi-TC e2e leg: two unbundled-tc processes (TC 1
// and TC 2 of a fleet, disjoint update ownership declared by one
// -placement spec string) share two unbundled-dc processes over real TCP.
// TC 1 is SIGKILLed mid-workload and restarted on the same TC-log
// directory; both workloads must end VERIFY OK — zero lost committed
// writes — and TC 1's restart (its own incarnation-epoch fence at the
// shared DCs) must not disturb TC 2 at all.
func TestE2EMultiTCKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	if runtime.GOOS == "windows" {
		t.Skip("e2e: SIGKILL semantics are POSIX-only")
	}
	dcBin, tcBin := buildBinaries(t)
	work := t.TempDir()

	// The one spec string that drives the whole fleet: data hashed across
	// both DCs, ownership split along the workload key prefixes.
	const spec = "kv: dc=hash(2) owner=range(<w2:1,*:2)"

	var dcAddrs []string
	for i := 0; i < 2; i++ {
		cmd := exec.Command(dcBin, "-listen", "127.0.0.1:0", "-tables", "kv",
			"-dir", filepath.Join(work, fmt.Sprintf("dc%d", i)), "-name", fmt.Sprintf("dc%d", i))
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() && addr == "" {
			fields := strings.Fields(sc.Text())
			for i, f := range fields {
				if f == "on" && i+1 < len(fields) {
					addr = fields[i+1]
					break
				}
			}
		}
		if addr == "" {
			t.Fatalf("dc%d produced no listening line (scanner err: %v)", i, sc.Err())
		}
		go io.Copy(io.Discard, out)
		dcAddrs = append(dcAddrs, addr)
	}
	dcList := strings.Join(dcAddrs, ",")

	type tcProc struct {
		cmd        *exec.Cmd
		mu         sync.Mutex
		buf        bytes.Buffer
		progressed chan struct{}
		scanDone   chan struct{}
	}
	startTC := func(id, txns int) *tcProc {
		t.Helper()
		cmd := exec.Command(tcBin,
			"-dcs", dcList, "-placement", spec,
			"-tc-id", fmt.Sprint(id), "-tcs", "2",
			"-dir", filepath.Join(work, fmt.Sprintf("tc%d", id)),
			"-txns", fmt.Sprint(txns), "-ops", "4",
			"-checkpoint-every", "500", "-progress-every", "100", "-verify")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		p := &tcProc{cmd: cmd, progressed: make(chan struct{}), scanDone: make(chan struct{})}
		go func() {
			defer close(p.scanDone)
			sc := bufio.NewScanner(out)
			signalled := false
			for sc.Scan() {
				line := sc.Text()
				p.mu.Lock()
				p.buf.WriteString(line + "\n")
				p.mu.Unlock()
				if !signalled && strings.Contains(line, "committed 300/") {
					close(p.progressed)
					signalled = true
				}
			}
			if !signalled {
				close(p.progressed)
			}
		}()
		return p
	}
	output := func(p *tcProc) string {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.buf.String()
	}

	const totalTxns = 4000
	tc2 := startTC(2, totalTxns)
	tc1a := startTC(1, totalTxns)

	select {
	case <-tc1a.progressed:
	case <-time.After(60 * time.Second):
		t.Fatal("TC1 made no progress")
	}
	if err := tc1a.cmd.Process.Kill(); err != nil { // SIGKILL mid-workload
		t.Fatalf("kill tc1: %v", err)
	}
	<-tc1a.scanDone // drain the pipe before Wait may close it
	tc1a.cmd.Wait()
	time.Sleep(300 * time.Millisecond)

	// Restart TC 1 on the same flags and TC-log directory: it recovers
	// from its own log (epoch-fenced DC reset, redo) and runs
	// the whole workload again — unique keys and deterministic values
	// make the re-run idempotent and the verify oracle exact.
	tc1b := startTC(1, totalTxns)

	waitTC := func(name string, p *tcProc) string {
		t.Helper()
		// Wait for the scanner's EOF before reaping: os/exec's Wait
		// closes the stdout pipe, which could discard trailing output
		// (the VERIFY OK line this test greps for) still in flight.
		select {
		case <-p.scanDone:
		case <-time.After(180 * time.Second):
			t.Fatalf("%s did not finish; output so far:\n%s", name, output(p))
		}
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("%s failed: %v\n%s", name, err, output(p))
		}
		return output(p)
	}
	o1 := waitTC("restarted tc1", tc1b)
	o2 := waitTC("tc2", tc2)

	if !strings.Contains(o1, "VERIFY OK") {
		t.Fatalf("restarted TC1: no VERIFY OK:\n%s", o1)
	}
	if !strings.Contains(o1, "restarting tc 1 from its log") {
		t.Fatalf("restarted TC1 did not recover from its log:\n%s", o1)
	}
	if m := regexp.MustCompile(`restarted: epoch=(\d+)`).FindStringSubmatch(o1); m == nil || m[1] == "1" {
		t.Fatalf("restarted TC1 did not advance its epoch:\n%s", o1)
	}
	if !strings.Contains(o2, "VERIFY OK") {
		t.Fatalf("TC2 (undisturbed by TC1's restart): no VERIFY OK:\n%s", o2)
	}
	if killed := output(tc1a); strings.Contains(killed, "VERIFY") {
		t.Fatalf("TC1 was killed after verification started; the restart leg proved nothing:\n%s", killed)
	}
}
