package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	var g Gauge
	reg.Group("tc0").Counter("commits", &c)
	reg.Group("tc0").Gauge("inflight", &g)
	reg.Group("dc1").Func("performs", func() uint64 { return 7 })

	c.Add(3)
	c.Inc()
	g.Add(2)
	g.Add(-1)

	snap := reg.Snapshot()
	if got := snap["tc0"]["commits"]; got != 4 {
		t.Fatalf("commits = %d, want 4", got)
	}
	if got := snap["tc0"]["inflight"]; got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	if got := snap["dc1"]["performs"]; got != 7 {
		t.Fatalf("performs = %d, want 7", got)
	}
}

func TestGaugeClampsNegative(t *testing.T) {
	reg := NewRegistry()
	var g Gauge
	reg.Group("x").Gauge("depth", &g)
	g.Add(-5)
	if got := reg.Snapshot()["x"]["depth"]; got != 0 {
		t.Fatalf("negative gauge exported as %d, want 0", got)
	}
}

func TestSnapshotConcurrentWithWrites(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.Group("g").Counter("n", &c)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		reg.Snapshot()
	}
	close(stop)
	wg.Wait()
}

func TestWriteJSONShape(t *testing.T) {
	reg := NewRegistry()
	reg.Group("wire.tc0.dc0").Func("resends", func() uint64 { return 2 })
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]map[string]uint64
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("WriteJSON output not the documented shape: %v\n%s", err, sb.String())
	}
	if decoded["wire.tc0.dc0"]["resends"] != 2 {
		t.Fatalf("decoded = %v", decoded)
	}
}

// fakeDrainable quiesces one Drain()+step later, exercising the
// draining-but-not-quiesced window.
type fakeDrainable struct {
	mu       sync.Mutex
	draining bool
	inflight int
}

func (f *fakeDrainable) Drain()   { f.mu.Lock(); f.draining = true; f.mu.Unlock() }
func (f *fakeDrainable) Undrain() { f.mu.Lock(); f.draining = false; f.mu.Unlock() }
func (f *fakeDrainable) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}
func (f *fakeDrainable) Quiesced() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining && f.inflight == 0
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(41)
	reg.Group("tc0").Counter("commits", &c)
	target := &fakeDrainable{inflight: 1}

	a, err := Serve("127.0.0.1:0", reg, target)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := "http://" + a.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/stats"); code != 200 || !strings.Contains(body, `"commits": 41`) {
		t.Fatalf("/stats = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}

	// Drain with in-flight work: draining, not quiesced, 503 health.
	if code, body := get("/drain"); code != 200 || !strings.Contains(body, `"status":"draining"`) {
		t.Fatalf("/drain = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz code = %d, want 503", code)
	}

	// In-flight work finishes: quiesced.
	target.mu.Lock()
	target.inflight = 0
	target.mu.Unlock()
	if _, body := get("/healthz"); !strings.Contains(body, `"status":"quiesced"`) {
		t.Fatalf("quiesced /healthz = %q", body)
	}

	if code, body := get("/undrain"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/undrain = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("post-undrain /healthz code = %d", code)
	}
}

func TestAdminWithoutTarget(t *testing.T) {
	a, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/drain", a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/drain without target = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/healthz", a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz without target = %d, want 200", resp.StatusCode)
	}
}
