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
//     flush; the cost is the abstract-LSN bytes each write-back carries
//     (Stats.AbLSNBytes), whole, in a delta frame as in a full image, since
//     the newest frame's table is the page's.
//
// A leaf's stable page is a chain (storage.PageStore): a base image and the
// delta frames written onto it since. A write-back writes what changed — a
// frame of the records Put, Replace and Remove changed (page.AppendDelta) —
// when the page was built from the chain the store holds, no whole-page
// operation has touched it since, and the chain's frames and this one stay
// within half the base; otherwise it writes a full image, which starts the
// next chain (writeBack). A branch is always written whole. The write-back
// pays for what it writes and little more: the frame is encoded in one walk
// over what changed, which gives up as soon as the frame outgrows the room,
// and a leaf's image is written with room for half its length behind it, the
// most the rule lets its frames take, so no frame moves the chain. Nor does it
// write history no snapshot reads: what it writes, it collects down to the GC
// horizon (Gates.Horizon) as it encodes, in the cached page too, so the two
// stay alike.
//
// A page crosses the cache boundary without a copy of its records either
// way. A write-back encodes a frame into a buffer of the pool's that it takes
// for the while (Pool.frameBufs), which the store copies into the room behind
// the chain, or encodes a full image into a fresh buffer, which the store
// keeps. Write-backs of different pages encode at once, each into a buffer of
// its own. A miss copies nothing: the store returns the chain it holds and
// page.DecodeInto builds the cached page over it, decoding the base and
// applying each frame in the one pass, so the cached page and the stable page
// share their bytes until a record is replaced (the page package comment has
// the rules this rests on: chains are never written below their end, fields
// are replaced and not edited). A frame appended after the miss leaves the
// page's bytes where they are; a full image leaves the frame aliasing the
// chain it was read from, now dead, and the store holding the new one.
//
// A miss at capacity reuses the frame an eviction freed: its page with the
// record array, abstract-LSN table, FirstDirty map and change marks, and the
// frame itself, which is its LRU node. The miss decodes its chain into that
// page, which lets go of the old chain, so what a miss that evicts a dirty
// page allocates is the image it writes back, if it writes one. A frame is
// freed only once it has left the frame map under mu while its evictor holds
// its only pin: every caller lets go of a page when it unpins it, so nothing
// can still reach the page. The pool keeps one freed frame (spare); more are
// left to the collector.
package buffer

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Horizon returns the GC horizon, at or below every TC's safe timestamp:
	// a write-back collects the versions no snapshot at or above it reads
	// (page.Page.AppendDelta, CollectImage). Nil, or zero, collects nothing.
	Horizon func() base.TS
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
	Images     uint64 // flushes that wrote a full image; the others wrote a delta frame
	PageBytes  uint64 // bytes written to stable pages
	AbLSNBytes uint64 // of which abstract-LSN bytes (benchmark: buffer.ablsn_bytes_frac)
}

// ErrNotFlushable is returned by non-waiting flushes whose gates are not
// yet satisfied.
var ErrNotFlushable = errors.New("buffer: flush gates not satisfied")

// ErrEnded is returned by every flush of a pool that End has ended: the
// component that owned it is down.
var ErrEnded = fmt.Errorf("buffer: the pool has ended: %w", base.ErrUnavailable)

type frame struct {
	pg  *page.Page
	pin int
	// prev and next link the frame into the pool's LRU ring (Pool.lru).
	prev, next *frame
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
	// lru is the sentinel of the ring of cached frames: lru.next is the most
	// recently used, lru.prev the coldest.
	lru frame
	// spare is the frame the last eviction freed, for the next miss to take
	// over, or nil.
	spare *frame

	// ended is set by End under wmu, which every write-back holds shared
	// across its check and its store.Write.
	wmu   sync.RWMutex
	ended atomic.Bool

	// frameBufs holds up to eight buffers for delta frames: a write-back
	// takes one, or makes one if none is free, encodes a frame into it and
	// puts it back once the store has copied the frame, so a frame allocates
	// nothing while no more than eight write-backs overlap.
	frameBufs chan []byte

	hits, misses, flushes, evictions, flushWaits atomic.Uint64
	images, pageBytes, abBytes                   atomic.Uint64
}

// New returns a pool over store with the given gates.
func New(cfg Config, store *storage.PageStore, gates Gates) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), store: store, gates: gates,
		frames: make(map[base.PageID]*frame), frameBufs: make(chan []byte, 8)}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.cond = sync.NewCond(&p.mu)
	return p
}

// pushFront links f in as the most recently used frame (caller holds p.mu).
func (p *Pool) pushFront(f *frame) {
	f.prev, f.next = &p.lru, p.lru.next
	f.next.prev, p.lru.next = f, f
}

// unlink takes f out of the LRU ring (caller holds p.mu).
func (p *Pool) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// touch makes f the most recently used frame (caller holds p.mu).
func (p *Pool) touch(f *frame) {
	p.unlink(f)
	p.pushFront(f)
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
// miss. The frame is pinned; callers must Unpin, and must not touch the page
// after that. Fetching an ID with no stable contents and no cached frame
// returns nil.
func (p *Pool) Fetch(id base.PageID) (*page.Page, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pin++
		p.touch(f)
		p.mu.Unlock()
		p.hits.Add(1)
		return f.pg, nil
	}
	f := p.spare
	p.spare = nil
	p.mu.Unlock()
	p.misses.Add(1)
	if f == nil {
		f = &frame{pg: &page.Page{}}
	}
	for {
		image, ok := p.store.Read(id)
		if !ok {
			p.giveBack(f)
			return nil, nil
		}
		// Over the store's own bytes, see the package comment.
		if err := page.DecodeInto(f.pg, image); err != nil {
			p.giveBack(f)
			return nil, err
		}
		if fetchDecoded != nil {
			fetchDecoded(id)
		}
		p.mu.Lock()
		if w, ok := p.frames[id]; ok { // lost a race; use the winner
			w.pin++
			p.touch(w)
			p.spareLocked(f)
			p.mu.Unlock()
			return w.pg, nil
		}
		// No frame, but one may have come and gone while the image was being
		// decoded — written to, written back and evicted: then the image is
		// stale, and installing it would lose those writes. An eviction writes
		// the page back before it drops the frame under mu, so the store,
		// asked under mu, tells.
		if !p.store.Holds(id, image) {
			p.mu.Unlock()
			continue
		}
		f.pin = 1
		p.insertLocked(f)
		p.mu.Unlock()
		p.maybeEvict()
		return f.pg, nil
	}
}

// giveBack returns f, which a miss took and did not install, to the pool.
func (p *Pool) giveBack(f *frame) {
	p.mu.Lock()
	p.spareLocked(f)
	p.mu.Unlock()
}

// spareLocked keeps f, a frame no caller can reach, for the next miss unless
// the pool keeps one already (caller holds p.mu).
func (p *Pool) spareLocked(f *frame) {
	if p.spare == nil {
		p.spare = f
	}
}

// insertLocked caches f as the most recently used frame (caller holds p.mu).
func (p *Pool) insertLocked(f *frame) {
	p.pushFront(f)
	p.frames[f.pg.ID] = f
}

// Install adds a freshly created page (from an SMO or its redo) to the
// cache, pinned and dirty. The ID must have no frame yet — the caller
// allocated it, or Fetch just found nothing: a frame's page is never swapped
// (flushFrame holds the latch of the page it read from the frame).
func (p *Pool) Install(pg *page.Page) {
	pg.Dirty = true
	pg.DropChain()
	p.mu.Lock()
	if _, ok := p.frames[pg.ID]; ok {
		p.mu.Unlock()
		panic(fmt.Sprintf("buffer: install over the cached frame of page %d", pg.ID))
	}
	p.insertLocked(&frame{pg: pg, pin: 1})
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

// Store returns the page store the pool reads and writes.
func (p *Pool) Store() *storage.PageStore { return p.store }

// Forced is pg as far as the causality gate's end of stable log reaches
// (page.Page.Forced): what a system transaction may log of it.
func (p *Pool) Forced(pg *page.Page) *page.Page { return pg.Forced(p.gates.EOSL) }

// FlushPage makes id stable, honoring the gates. With wait=false it
// returns ErrNotFlushable when a gate is closed; with wait=true it blocks
// until the gates open (watermark kicks re-evaluate). Unknown/clean pages
// succeed trivially.
// Test hook: buffer's tests, btree's TestRedoIsIdempotentOverAnyStableState, dc's atrest_test.go.
func (p *Pool) FlushPage(id base.PageID, wait bool) error {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok {
		p.mu.Unlock()
		return nil
	}
	f.pin++ // hold the frame across the flush
	p.mu.Unlock()
	err := p.flushFrame(context.Background(), f, wait)
	p.Unpin(id)
	return err
}

// End ends the pool, for good: once it returns no page of the pool reaches
// the store — a write-back in progress has finished, and every later one
// leaves its page dirty and fails ErrEnded — and flushes waiting on the gates
// give up. A component calls it when it crashes: the pages die with it, and
// the store is its successor's.
func (p *Pool) End() {
	p.wmu.Lock()
	p.ended.Store(true)
	p.wmu.Unlock()
	p.Kick()
}

// watchWriteBack, when set, is called with every page a write-back is about
// to write, latched, and the GC horizon it collects to, and what it returns
// once the page is written; discardedFrame, with every delta frame a
// write-back built whole and did not write, which it does only when the store
// no longer holds the chain the frame was built onto; fetchDecoded, with the
// page a miss has decoded, before it takes mu to install it (tests).
var (
	watchWriteBack func(pg *page.Page, horizon base.TS) (written func())
	discardedFrame func(pg *page.Page)
	fetchDecoded   func(id base.PageID)
)

// writeBack makes pg, latched, its stable version unless the pool has
// ended, and returns the bytes it wrote and how many of them are
// abstract-LSN table; the check and the write are one critical section
// against End. One rule decides what is written. A leaf writes a delta frame
// (page.Page.AppendDelta) onto its stable chain when it was built from the
// chain the store holds now, no whole-page operation has touched it since
// (page.Page.Chain), and the chain's frames and this one stay within half
// the base. Anything else — a chain that has grown too long, a new page, a
// reshaped one, a branch — writes a full image, which is the consolidation.
//
// The frame is encoded once, into a buffer of the pool's (frameBufs), and the
// encoding gives up as soon as the frame outgrows the room the chain has left;
// the store copies a frame that fits onto the chain. A leaf's full image is
// encoded into a buffer with room past its end for all the frames the rule
// lets onto it, half its length, so the store appends every one of them in
// place.
//
// What is written is collected down to the horizon (Gates.Horizon): a frame's
// records as they are encoded, every record (page.Page.CollectImage) before a
// full image is. The cached page is collected with it, so it stays what the
// store holds.
func (p *Pool) writeBack(pg *page.Page) (written, abBytes int, ok bool) {
	p.wmu.RLock()
	defer p.wmu.RUnlock()
	if p.ended.Load() {
		return 0, 0, false
	}
	var horizon base.TS
	if p.gates.Horizon != nil {
		horizon = p.gates.Horizon()
	}
	if watchWriteBack != nil {
		defer watchWriteBack(pg, horizon)()
	}
	if chain, base := pg.Chain(); chain != nil {
		// What the chain's frames may still add.
		if room := base/2 - (len(chain) - base); room > 0 {
			var buf []byte
			select {
			case buf = <-p.frameBufs:
			default:
			}
			frame, abBytes, fits := pg.AppendDelta(slices.Grow(buf, room), horizon, room)
			var next []byte
			held := false
			if fits {
				next, held = p.store.Append(pg.ID, chain, frame)
			}
			select {
			case p.frameBufs <- frame[:0]:
			default:
			}
			if held {
				pg.SetChain(next, base)
				return len(frame), abBytes, true
			}
			if fits && discardedFrame != nil {
				discardedFrame(pg)
			}
		}
	}
	spare := 0
	if pg.Leaf {
		pg.CollectImage(horizon)
		spare = pg.Size() / 2
	}
	image, abBytes := pg.EncodeAb(spare)
	if pg.Leaf && cap(image)-len(image) < len(image)/2 {
		image = slices.Grow(image, len(image)/2) // Size fell short of the image
	}
	p.store.Write(pg.ID, image) // the store keeps image; it is not touched again
	pg.SetChain(image, len(image))
	p.images.Add(1)
	return len(image), abBytes, true
}

// flushFrame writes f's page back, if dirty, once its gates open. A wait for
// them ends with ctx only if ctx's end Kicks the pool (FlushAllContext's does).
func (p *Pool) flushFrame(ctx context.Context, f *frame, wait bool) error {
	for {
		if p.ended.Load() {
			return ErrEnded
		}
		p.mu.Lock()
		gen := p.kickGen
		p.mu.Unlock()

		f.pg.L.Lock()
		pg := f.pg
		if !pg.Dirty {
			f.pg.L.Unlock()
			return nil
		}
		// One pass over the page's TCs, each gate asked once. Each TC's
		// abstract LSN is pruned to its LWM, never beyond its EOSL, so
		// stable pages cannot claim idempotence for operations a TC crash
		// could lose (ablsn.A.Advance); a write prunes the same way. Gate 1,
		// causality: every TC's log is stable through what the page holds of
		// it. A closed gate does not end the pass: the other TCs' entries
		// are pruned all the same.
		open := true
		for i := 0; i < pg.Ab.Len(); i++ {
			tc, a := pg.Ab.At(i)
			eosl := p.gates.EOSL(tc)
			a.Advance(p.gates.LWM(tc), eosl)
			if eosl < a.MaxApplied() {
				open = false
			}
		}
		if !open {
			f.pg.L.Unlock()
			if !wait {
				return ErrNotFlushable
			}
			if ctx.Err() != nil {
				return base.CancelErr(ctx)
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
		written, abBytes, ok := p.writeBack(pg)
		if !ok {
			f.pg.L.Unlock()
			return ErrEnded
		}
		p.pageBytes.Add(uint64(written))
		p.abBytes.Add(uint64(abBytes))
		pg.Dirty = false
		clear(pg.FirstDirty) // emptied, not dropped: the next MarkDirty refills it
		pg.RecDLSN = 0
		pg.Undo = nil // gate 1 passed: no TC can lose an operation the page holds
		f.pg.L.Unlock()
		p.flushes.Add(1)
		return nil
	}
}

// FlushAll is FlushAllContext under a context that never ends.
func (p *Pool) FlushAll(wait bool, pred func(*page.Page) bool) error {
	return p.FlushAllContext(context.Background(), wait, pred)
}

// FlushAllContext flushes every cached dirty page matching pred (nil = all).
// With wait=true it blocks per page until flushable (checkpoint), or until
// ctx ends: a page whose gates are closed then is left dirty, and the error
// is base.CancelErr(ctx).
func (p *Pool) FlushAllContext(ctx context.Context, wait bool, pred func(*page.Page) bool) error {
	if wait && ctx.Done() != nil {
		// Wakes a flush waiting when ctx ends. The Kick moves kickGen, so one
		// that read its generation and then found ctx live does not wait.
		stop := context.AfterFunc(ctx, p.Kick)
		defer stop()
	}
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
		if err := p.flushFrame(ctx, f, wait); err != nil && firstErr == nil {
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

// Drop removes the cached frame without flushing (page delete, §5.2.2). The
// stable page stays: the pool never frees one.
func (p *Pool) Drop(id base.PageID) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		p.unlink(f)
		delete(p.frames, id)
	}
	p.mu.Unlock()
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
		var id base.PageID
		for f := p.lru.prev; f != &p.lru; f = f.prev {
			if f.pin == 0 {
				victim, id = f, f.pg.ID
				f.pin++
				break
			}
		}
		p.mu.Unlock()
		if victim == nil {
			return // everything pinned; let it ride
		}
		err := p.flushFrame(context.Background(), victim, false)
		p.mu.Lock()
		cached := p.frames[id] == victim
		if cached && err == nil && victim.pin == 1 && !victim.pg.Dirty {
			p.unlink(victim)
			delete(p.frames, id)
			p.evictions.Add(1)
			victim.pin = 0
			p.spareLocked(victim) // out of the map, only our pin: no caller holds its page
			p.mu.Unlock()
			continue
		}
		// Gates closed, or re-dirtied or re-pinned during the flush: keep it.
		if cached {
			victim.pin--
			if err != nil {
				p.touch(victim) // don't retry it immediately
			}
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
		Images:     p.images.Load(),
		Evictions:  p.evictions.Load(),
		FlushWaits: p.flushWaits.Load(),
		PageBytes:  p.pageBytes.Load(),
		AbLSNBytes: p.abBytes.Load(),
	}
}
