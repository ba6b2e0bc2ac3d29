package wire

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/stats"
)

// The sharded request runtime. Instead of one goroutine per request —
// which under sustained overload grows without bound until the scheduler
// (or the kernel) collapses — the server runs a fixed pool of workers,
// each owning a bounded queue. Dispatch picks the least-busy worker by
// load counter (the ptp4u pattern: fleet-scale servers shard exactly this
// way), falls over to any worker with room, and when every queue is full
// refuses the request with a typed transient overload — backpressure the
// client rides out with its ordinary pause-and-retry loop. Load therefore
// degrades by shedding admissions, never by accumulating goroutines.

// workerPool runs jobs on a fixed set of workers with bounded queues.
type workerPool struct {
	workers []*poolWorker
	wg      sync.WaitGroup

	dispatched atomic.Uint64 // jobs admitted
	overloads  atomic.Uint64 // jobs refused with every queue full
}

// poolWorker is one shard: a queue and its load counter (queued + running
// jobs), read by dispatch for least-busy placement and exported as a
// per-worker gauge.
type poolWorker struct {
	queue chan func()
	load  atomic.Int64
	done  atomic.Uint64
}

func newWorkerPool(workers, queueDepth int) *workerPool {
	p := &workerPool{workers: make([]*poolWorker, workers)}
	for i := range p.workers {
		w := &poolWorker{queue: make(chan func(), queueDepth)}
		p.workers[i] = w
		p.wg.Add(1)
		go w.run(&p.wg)
	}
	return p
}

func (w *poolWorker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for f := range w.queue {
		f()
		w.load.Add(-1)
		w.done.Add(1)
	}
}

// leastBusy returns the index of the worker with the smallest load. The
// counters move under our feet; that is fine — the answer only needs to
// be a good placement hint, not a linearizable minimum.
func (p *workerPool) leastBusy() int {
	best, min := 0, p.workers[0].load.Load()
	for i := 1; i < len(p.workers); i++ {
		if l := p.workers[i].load.Load(); l < min {
			best, min = i, l
		}
	}
	return best
}

// dispatch queues f on the least-busy worker, falling over to any worker
// with queue room. It reports false — overload — only when every queue is
// full; f then never runs and the caller owes the client a typed refusal.
func (p *workerPool) dispatch(f func()) bool {
	start := p.leastBusy()
	for i := 0; i < len(p.workers); i++ {
		w := p.workers[(start+i)%len(p.workers)]
		select {
		case w.queue <- f:
			w.load.Add(1)
			p.dispatched.Add(1)
			return true
		default: // this shard is full; try the next
		}
	}
	p.overloads.Add(1)
	return false
}

// queued returns the total load (queued + running jobs) across workers.
func (p *workerPool) queued() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.load.Load()
	}
	return n
}

// close stops the workers after they finish everything already queued:
// admitted work always executes, even across a listener shutdown. Callers
// must guarantee no dispatch runs concurrently or after.
func (p *workerPool) close() {
	for _, w := range p.workers {
		close(w.queue)
	}
	p.wg.Wait()
}

// registerStats exports the pool's counters: total admissions and
// refusals, the live aggregate queue depth, the hard queue capacity, and
// a per-worker load gauge (the balance ptp4u's findLeastBusyWorkerID
// maintains, made visible).
func (p *workerPool) registerStats(g *stats.Group) {
	g.Func("workers", func() uint64 { return uint64(len(p.workers)) })
	g.Func("worker_queue_cap", func() uint64 { return uint64(len(p.workers) * cap(p.workers[0].queue)) })
	g.Func("worker_queue_depth", func() uint64 {
		if n := p.queued(); n > 0 {
			return uint64(n)
		}
		return 0
	})
	g.Func("dispatched", p.dispatched.Load)
	g.Func("overloads", p.overloads.Load)
	for i, w := range p.workers {
		w := w
		g.Func(fmt.Sprintf("worker%d_load", i), func() uint64 {
			if n := w.load.Load(); n > 0 {
				return uint64(n)
			}
			return 0
		})
		g.Func(fmt.Sprintf("worker%d_done", i), w.done.Load)
	}
}
