// Package stats is the operations plane's metrics registry: named
// counters and gauges grouped per component (one group per TC, DC, wire
// endpoint, ...), snapshot-able without stopping the world and exported
// as a flat JSON document over the admin HTTP endpoint (see Serve).
//
// The design constraint is the hot path: instrumented code must pay at
// most one atomic add per event. The registry therefore never wraps or
// locks the instrumented counters — components keep their own
// sync/atomic fields and register read-only closures (Group.Func) that
// the registry calls only when a snapshot is taken. Counter and Gauge
// are provided for call sites that have no pre-existing atomic, and are
// themselves single atomic words.
//
// A snapshot is a point-in-time read of every registered value:
//
//	reg := stats.NewRegistry()
//	g := reg.Group("tc0")
//	g.Func("commits", tcCommits.Load)
//	snap := reg.Snapshot() // map[group]map[name]uint64
//
// Snapshot reads each value with its own atomic load; it does not
// freeze the world, so values read microseconds apart may disagree by
// in-flight events — exactly the monitoring contract of every
// production counter endpoint.
//
// The JSON shape (WriteJSON, and the /stats admin endpoint) is two
// levels — {"<group>": {"<counter>": n, ...}, ...} — with groups and
// names sorted, in the style of ptp4u's stats/json.go: flat enough for
// a Prometheus exporter or a jq one-liner, structured enough to keep
// per-component namespaces apart.
package stats

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use. Add is one atomic add — safe on any hot path.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (in-flight requests, queue depth).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level, clamped at zero for export (a gauge
// observed mid-decrement can transiently read negative).
func (g *Gauge) Load() int64 { return g.v.Load() }

// A Group is one component's named values. Groups are created through
// Registry.Group and are safe for concurrent registration and snapshot.
type Group struct {
	mu   sync.Mutex
	vals map[string]func() uint64
}

// Func registers a read-only closure under name. The closure is called
// at snapshot time only; it must be safe to call concurrently with the
// component's normal operation (an atomic load, or a computed value
// over atomic loads). Registering an existing name replaces it.
func (g *Group) Func(name string, f func() uint64) *Group {
	g.mu.Lock()
	g.vals[name] = f
	g.mu.Unlock()
	return g
}

// Counter registers c under name and returns c for inline declaration.
func (g *Group) Counter(name string, c *Counter) *Counter {
	g.Func(name, c.Load)
	return c
}

// Gauge registers ga under name.
func (g *Group) Gauge(name string, ga *Gauge) *Gauge {
	g.Func(name, func() uint64 {
		if v := ga.Load(); v > 0 {
			return uint64(v)
		}
		return 0
	})
	return ga
}

// snapshot reads every registered value.
func (g *Group) snapshot() map[string]uint64 {
	g.mu.Lock()
	fns := make(map[string]func() uint64, len(g.vals))
	for name, f := range g.vals {
		fns[name] = f
	}
	g.mu.Unlock()
	// Values are read outside the lock: a reader closure may itself
	// take component locks, and holding ours across it invites cycles.
	out := make(map[string]uint64, len(fns))
	for name, f := range fns {
		out[name] = f()
	}
	return out
}

// Registry is a set of named groups. The zero value is not usable; use
// NewRegistry.
type Registry struct {
	mu     sync.Mutex
	groups map[string]*Group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*Group)}
}

// Group returns the group registered under name, creating it on first
// use. Components typically call this once at wiring time and hold the
// *Group.
func (r *Registry) Group(name string) *Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.groups[name]
	if g == nil {
		g = &Group{vals: make(map[string]func() uint64)}
		r.groups[name] = g
	}
	return g
}

// Snapshot reads every value in every group: map[group][name] = value.
func (r *Registry) Snapshot() map[string]map[string]uint64 {
	r.mu.Lock()
	groups := make(map[string]*Group, len(r.groups))
	for name, g := range r.groups {
		groups[name] = g
	}
	r.mu.Unlock()
	out := make(map[string]map[string]uint64, len(groups))
	for name, g := range groups {
		out[name] = g.snapshot()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), one stable schema for tests, curl,
// and scrapers alike.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
