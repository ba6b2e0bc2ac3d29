// Package buffer implements the DC's cache manager (§4.1.2(3)). Flushing a
// page to stable storage is gated by three rules:
//
//  1. Causality / distributed WAL (§4.2): a page may be made stable only
//     when, for every TC with operations reflected in the page, the TC log
//     is stable at least through the page's highest applied LSN
//     (end_of_stable_log). Otherwise a TC crash could lose operations that
//     the stable database state already reflects.
//  2. DC-log WAL (§5.2.2): the DC-log must be forced through the page's
//     RecDLSN before the page is written, so structure modifications are
//     never reflected on disk without their log records.
//  3. Page sync (§5.1.2): the abstract LSN must be made stable atomically
//     with the page. The paper offers three strategies: (1) delay the
//     flush, refusing new higher-LSN operations on the page, until the
//     TC-supplied low-water mark swallows the whole {LSNin} set and a lone
//     LSNlw suffices; (2) embed the entire abstract LSN in the page; (3)
//     wait only until the set is "reduced to a manageable size" and then
//     embed it. This pool implements strategy 2 and nothing else: a flush
//     never waits on the low-water mark and no operation ever waits on a
//     flush; the cost is the abstract-LSN bytes each page write carries
//     (Stats.AbLSNBytes).
//
// A page crosses the cache boundary in one copy each way. A flush encodes
// the page into a fresh image (the only copy) and hands that buffer to the
// store, which keeps it. A miss copies nothing: the store returns the image
// it holds and page.Decode builds the cached page over it, so the cached
// page and the stable page share their bytes until a record is replaced (the
// page package comment has the rules this rests on: images are never
// written, fields are replaced and not edited). The next flush leaves the
// frame aliasing the image it was read from, now dead, and the store holding
// the new one; the frame lets go of the old image when it is evicted.
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// Gates supplies the watermarks that gate flushing.
type Gates struct {
	// EOSL returns the end of stable log for a TC (causality gate).
	EOSL func(base.TCID) base.LSN
	// LWM returns the low-water mark for a TC (abLSN pruning).
	LWM func(base.TCID) base.LSN
	// ForceDCLog forces the DC-log through the given dLSN (WAL gate).
	ForceDCLog func(base.DLSN)
}

// Config shapes the pool.
type Config struct {
	// Capacity is the number of cached pages before eviction kicks in.
	Capacity int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	return c
}

// Stats counts pool activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Flushes    uint64
	Evictions  uint64
	FlushWaits uint64
	PageBytes  uint64 // bytes written to stable pages
	AbLSNBytes uint64 // of which abstract-LSN bytes (benchmark: buffer.ablsn_bytes_frac)
}

// ErrNotFlushable is returned by non-waiting flushes whose gates are not
// yet satisfied.
var ErrNotFlushable = errors.New("buffer: flush gates not satisfied")

type frame struct {
	pg  *page.Page
	pin int
	el  *list.Element
}

// Pool is the page cache. All methods are safe for concurrent use.
type Pool struct {
	cfg   Config
	store *storage.PageStore
	gates Gates

	mu      sync.Mutex
	cond    *sync.Cond
	kickGen uint64
	frames  map[base.PageID]*frame
	lru     *list.List // front = most recently used; values are PageIDs

	hits, misses, flushes, evictions, flushWaits atomic.Uint64
	pageBytes, abBytes                           atomic.Uint64
}

// New returns a pool over store with the given gates.
func New(cfg Config, store *storage.PageStore, gates Gates) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), store: store, gates: gates,
		frames: make(map[base.PageID]*frame), lru: list.New()}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Kick wakes flushers waiting on watermark progress; the DC calls it after
// every end_of_stable_log / low_water_mark message.
func (p *Pool) Kick() {
	p.mu.Lock()
	p.kickGen++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Fetch returns the page, reading and decoding it from stable storage on a
// miss. The frame is pinned; callers must Unpin. Fetching an ID with no
// stable contents and no cached frame returns nil.
func (p *Pool) Fetch(id base.PageID) (*page.Page, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pin++
		p.lru.MoveToFront(f.el)
		p.mu.Unlock()
		p.hits.Add(1)
		return f.pg, nil
	}
	p.mu.Unlock()
	p.misses.Add(1)
	image, ok := p.store.Read(id)
	if !ok {
		return nil, nil
	}
	pg, err := page.Decode(image) // over the store's own bytes, see the package comment
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if f, ok := p.frames[id]; ok { // lost a race; use the winner
		f.pin++
		p.lru.MoveToFront(f.el)
		p.mu.Unlock()
		return f.pg, nil
	}
	f := p.insertLocked(pg)
	f.pin++
	p.mu.Unlock()
	p.maybeEvict()
	return f.pg, nil
}

// insertLocked adds a frame for pg (caller holds p.mu).
func (p *Pool) insertLocked(pg *page.Page) *frame {
	f := &frame{pg: pg}
	f.el = p.lru.PushFront(pg.ID)
	p.frames[pg.ID] = f
	return f
}

// Install adds a freshly created page (from an SMO or its redo) to the
// cache, pinned and dirty. The ID must have no frame yet — the caller
// allocated it, or Fetch just found nothing: a frame's page is never swapped
// (flushFrame holds the latch of the page it read from the frame).
func (p *Pool) Install(pg *page.Page) {
	pg.Dirty = true
	p.mu.Lock()
	if _, ok := p.frames[pg.ID]; ok {
		p.mu.Unlock()
		panic(fmt.Sprintf("buffer: install over the cached frame of page %d", pg.ID))
	}
	f := p.insertLocked(pg)
	f.pin++
	p.mu.Unlock()
	p.maybeEvict()
}

// Unpin releases one pin on id.
func (p *Pool) Unpin(id base.PageID) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pin--
		if f.pin < 0 {
			panic("buffer: negative pin count")
		}
	}
	p.mu.Unlock()
}

// MarkDirty records a TC operation (lsn may be 0 for pure SMO dirtying)
// and/or an SMO (dlsn may be 0) applied to pg. Callers hold the page latch.
func (p *Pool) MarkDirty(pg *page.Page, tc base.TCID, lsn base.LSN, dlsn base.DLSN) {
	pg.Dirty = true
	if lsn != 0 {
		if pg.FirstDirty == nil {
			pg.FirstDirty = make(map[base.TCID]base.LSN, 1)
		}
		if cur, ok := pg.FirstDirty[tc]; !ok || lsn < cur {
			pg.FirstDirty[tc] = lsn
		}
	}
	if dlsn != 0 && (pg.RecDLSN == 0 || dlsn < pg.RecDLSN) {
		pg.RecDLSN = dlsn
	}
}

// FlushPage makes id stable, honoring the gates. With wait=false it
// returns ErrNotFlushable when a gate is closed; with wait=true it blocks
// until the gates open (watermark kicks re-evaluate). Unknown/clean pages
// succeed trivially.
func (p *Pool) FlushPage(id base.PageID, wait bool) error {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok {
		p.mu.Unlock()
		return nil
	}
	f.pin++ // hold the frame across the flush
	p.mu.Unlock()
	err := p.flushFrame(f, wait)
	p.Unpin(id)
	return err
}

func (p *Pool) flushFrame(f *frame, wait bool) error {
	for {
		p.mu.Lock()
		gen := p.kickGen
		p.mu.Unlock()

		f.pg.L.Lock()
		pg := f.pg
		if !pg.Dirty {
			f.pg.L.Unlock()
			return nil
		}
		// One pass over the page's TCs, each gate asked once. Lazy
		// abstract-LSN advance: prune with min(LWM, EOSL) per TC — never
		// beyond EOSL, so stable pages cannot claim idempotence for
		// operations a TC crash could lose (see ablsn.A contract). Gate 1,
		// causality: every TC's log is stable through what the page holds of
		// it. A closed gate does not end the pass: the other TCs' entries
		// are pruned all the same.
		open := true
		for i := 0; i < pg.Ab.Len(); i++ {
			tc, a := pg.Ab.At(i)
			eosl := p.gates.EOSL(tc)
			a.Advance(min(p.gates.LWM(tc), eosl))
			if eosl < a.MaxApplied() {
				open = false
			}
		}
		if !open {
			f.pg.L.Unlock()
			if !wait {
				return ErrNotFlushable
			}
			p.flushWaits.Add(1)
			p.mu.Lock()
			for gen == p.kickGen {
				p.cond.Wait()
			}
			p.mu.Unlock()
			continue
		}
		// Gate 2: DC-log WAL. Force through the page's DLSN — the *latest*
		// system transaction reflected in the page — so no structure
		// modification reaches disk before its log record. (RecDLSN, the
		// earliest unflushed SMO, only drives log truncation.)
		if pg.DLSN != 0 && p.gates.ForceDCLog != nil {
			p.gates.ForceDCLog(pg.DLSN)
		}
		image, abBytes := pg.EncodeAb()
		p.store.Write(pg.ID, image) // the store keeps image; it is not touched again
		p.pageBytes.Add(uint64(len(image)))
		p.abBytes.Add(uint64(abBytes))
		pg.Dirty = false
		pg.FirstDirty = nil
		pg.RecDLSN = 0
		pg.Undo = nil // gate 1 passed: no TC can lose an operation the page holds
		f.pg.L.Unlock()
		p.flushes.Add(1)
		return nil
	}
}

// FlushAll flushes every cached dirty page matching pred (nil = all).
// With wait=true it blocks per page until flushable (checkpoint).
func (p *Pool) FlushAll(wait bool, pred func(*page.Page) bool) error {
	var firstErr error
	for _, f := range p.snapshot() {
		if pred != nil {
			f.pg.L.RLock()
			keep := pred(f.pg)
			f.pg.L.RUnlock()
			if !keep {
				p.Unpin(f.pg.ID)
				continue
			}
		}
		if err := p.flushFrame(f, wait); err != nil && firstErr == nil {
			firstErr = err
		}
		p.Unpin(f.pg.ID)
	}
	return firstErr
}

// snapshot pins and returns all current frames.
func (p *Pool) snapshot() []*frame {
	p.mu.Lock()
	out := make([]*frame, 0, len(p.frames))
	for _, f := range p.frames {
		f.pin++
		out = append(out, f)
	}
	p.mu.Unlock()
	return out
}

// Pages calls fn for every cached page with the frame pinned; fn is
// responsible for latching. Used by partial-failure reset (§5.3.2).
func (p *Pool) Pages(fn func(*page.Page)) {
	for _, f := range p.snapshot() {
		fn(f.pg)
		p.Unpin(f.pg.ID)
	}
}

// Drop removes the cached frame without flushing; with free=true the
// stable page is also removed (page delete, §5.2.2).
func (p *Pool) Drop(id base.PageID, free bool) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		p.lru.Remove(f.el)
		delete(p.frames, id)
	}
	p.mu.Unlock()
	if free {
		p.store.Free(id)
	}
}

// maybeEvict evicts cold clean-or-flushable pages above capacity.
func (p *Pool) maybeEvict() {
	for {
		p.mu.Lock()
		if len(p.frames) <= p.cfg.Capacity {
			p.mu.Unlock()
			return
		}
		// Walk from coldest; pick the first unpinned candidate.
		var victim *frame
		for el := p.lru.Back(); el != nil; el = el.Prev() {
			f := p.frames[el.Value.(base.PageID)]
			if f != nil && f.pin == 0 {
				victim = f
				f.pin++
				break
			}
		}
		p.mu.Unlock()
		if victim == nil {
			return // everything pinned; let it ride
		}
		if err := p.flushFrame(victim, false); err != nil {
			// Gates closed: skip eviction of this page for now.
			p.Unpin(victim.pg.ID)
			p.mu.Lock()
			p.lru.MoveToFront(victim.el) // don't retry it immediately
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		if f, ok := p.frames[victim.pg.ID]; ok && f == victim && f.pin == 1 && !f.pg.Dirty {
			p.lru.Remove(f.el)
			delete(p.frames, f.pg.ID)
			p.evictions.Add(1)
			p.mu.Unlock()
			continue
		}
		// Re-dirtied or re-pinned during the flush; keep it.
		if f, ok := p.frames[victim.pg.ID]; ok && f == victim {
			f.pin--
		}
		p.mu.Unlock()
		return
	}
}

// Cached returns the number of cached frames.
func (p *Pool) Cached() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Stats returns a snapshot of counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Flushes:    p.flushes.Load(),
		Evictions:  p.evictions.Load(),
		FlushWaits: p.flushWaits.Load(),
		PageBytes:  p.pageBytes.Load(),
		AbLSNBytes: p.abBytes.Load(),
	}
}
