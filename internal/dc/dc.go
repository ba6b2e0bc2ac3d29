// Package dc implements the Data Component (§4.1.2): a server for logical,
// record-oriented operations that knows nothing about transactions. It
// organizes, searches, updates, caches, and makes durable the data in the
// database; it makes each individual operation atomic and idempotent so
// that the TC's resend discipline yields exactly-once execution (§4.2).
//
// All knowledge of pages lives here. Structure modifications are system
// transactions on the DC-log (package dclog); the abstract-LSN machinery
// (package ablsn) provides idempotence despite out-of-order operation
// arrival (§5.1); the buffer pool (package buffer) enforces the WAL gate. A
// TC sends an operation only once it is stable in its log, so a TC's failure
// takes back nothing the DC holds: its restart fences its dead incarnation
// and resends (§5.3.2). The DC's own failure is handled by the TCs' resends,
// each of which a recovered incarnation waits out before it takes that TC's
// word about its contents again (see bracket). What is done to
// the physical structure as a whole — catalog, table creation, redo of
// system transactions — is btree's and shared with the monolith baseline;
// this package adds the operations, the per-TC protocol state and the DC's
// own life cycle.
//
// Everything volatile a call needs is one incarnation (see the type),
// published atomically: a call loads it once and serves from it alone.
package dc

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// Config shapes a DC instance.
type Config struct {
	// Name identifies the DC in diagnostics.
	Name string
	// PageBytes is the split threshold (default 4096).
	PageBytes int
	// CacheCapacity is the buffer-pool capacity in pages.
	CacheCapacity int
	// CheckConflicts enables the debug invariant that no two conflicting
	// operations execute concurrently (the TC's obligation, §1.2).
	CheckConflicts bool
	// Dir, when nonempty, backs the DC's stable media with two files in that
	// directory, the page journal "pages" and the DC-log "dclog", so they
	// survive process death — what a standalone cmd/unbundled-dc needs to
	// honor checkpoint contracts across kill -9. Empty keeps the in-memory simulated media.
	// Reopening a directory a previous incarnation wrote runs DC-log
	// recovery before serving (the TC then resends its redo stream).
	Dir string
}

// Stats counts DC activity.
type Stats struct {
	Performs      uint64
	DupSkips      uint64 // operations recognized as already applied
	Unavailable   uint64
	StaleEpochs   uint64 // operations refused as pre-restart (epoch fence)
	ConflictViols uint64 // debug conflict-checker violations (must be 0)
	SnapshotReads uint64 // snapshot-flavor reads served
	SnapshotWaits uint64 // snapshot reads that had to wait out a safe TS
}

// bracket is where a TC stands in its resend to one DC incarnation (§5.3.1:
// a TC resumes normal work with a DC only once it has resent its redo stream
// to it). Until the bracket is done the DC takes no claim of the TC's about
// its own contents — no low-water mark, no safe timestamp, no checkpoint —
// and executes none of its operations but the resend's, which are stamped
// with the incarnation's number: every other one is answered CodeStaleDC,
// which is what tells the TC to resend.
type bracket uint32

const (
	// done (the zero value): nothing owed — the TC's resend to this
	// incarnation has ended, or the recovered fences did not name it (no
	// incarnation of this DC ever executed one of its operations).
	done bracket = iota
	// owed: the recovered fences name the TC, and everything this DC did
	// for it died with the previous incarnation's cache.
	owed
	// open: BeginRestart seen, EndRestart not yet.
	open
)

// tcState is the DC's per-TC bookkeeping: the low-water mark that drives
// pruning, the incarnation-epoch fence and the resend bracket.
type tcState struct {
	// id is the TC's identity, the key the incarnation's tcs is sorted by.
	id base.TCID
	// ctl serializes the control plane — epoch installs (BeginRestart),
	// activation (EndRestart), checkpoint admission, and watermark
	// advances. The wire server dispatches control calls in their own
	// goroutines and the fabric duplicates deliveries, so every
	// check-then-act on this state must hold ctl or a duplicated/reordered
	// delivery can regress the fence or slip a stale watermark past a
	// concurrent fence raise. Reads on the PerformBatch hot path stay
	// lock-free via the atomics.
	ctl sync.Mutex
	lwm atomic.Uint64
	// epoch is the fence: the newest incarnation of the TC this DC has heard
	// of, from a BeginRestart or the first operation of that incarnation it
	// admitted, and durable either way (KindEpochs). Operations, watermarks
	// and control calls stamped with an older epoch are refused. It only
	// ever rises.
	epoch atomic.Uint64
	// bracket is a bracket, moved under ctl.
	bracket atomic.Uint32

	// safe is the TC's closed timestamp: the TC promises that every commit
	// with TS <= safe has its stamped writes at this DC and its commit
	// record forced, and that it will never assign a commit TS at or below
	// it again. A head the TC stamped at or below it is committed, which is
	// what a committed read asks (page.Record.Pending), and a snapshot read
	// at T waits until every registered TC's safe covers T.
	safe atomic.Uint64
	// horizon is the TC's GC watermark: no live or future snapshot of that
	// TC reads below it, so versions under the minimum horizon may be
	// reclaimed. Zero until the incarnation takes the TC's first broadcast.
	horizon atomic.Uint64
	// safeCh, when non-nil, is closed under ctl the next time safe
	// advances; snapshot waiters subscribe through safeChanged.
	safeCh chan struct{}
	// evictions is the pool's eviction count at the TC's previous
	// checkpoint here (see Checkpoint).
	evictions atomic.Uint64
}

// safeChanged returns a channel closed on the next advance of safe.
func (s *tcState) safeChanged() <-chan struct{} {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.safeCh == nil {
		s.safeCh = make(chan struct{})
	}
	return s.safeCh
}

// fenced reports whether an incoming epoch is older than the installed
// fence and must be refused.
func (s *tcState) fenced(e base.Epoch) bool { return uint64(e) < s.epoch.Load() }

// resent reports whether the TC's resend to this incarnation is done.
func (s *tcState) resent() bool { return bracket(s.bracket.Load()) == done }

// incarnation is everything volatile the DC serves from, as one value: the
// buffer pool, the trees opened over it, the per-TC protocol state and the
// conflict checker, and its two handles on the stable media — the pool, the
// only writer of pages, and its generation of the DC-log, the only appender
// and truncator of records. Recover (and so New) builds one whole from the
// stable media and publishes it; Crash ends both handles and drops it, Close
// drops it. Nothing in it outlives a crash — its number and the epoch fences
// are rebuilt from the DC-log, everything else the TCs re-establish by
// resending to it — and a call that loaded it before a crash finishes on it:
// such work lands in a discarded cache and writes nothing stable (a split it
// decides is refused, a page it would write back stays dirty), which is
// precisely the semantics of losing volatile state in the crash.
type incarnation struct {
	// n is the incarnation's durable number, one above every number before
	// it: the stamp a TC's resend to it carries.
	n      base.DCInc
	log    wal.Generation
	pool   *buffer.Pool
	forest *btree.Forest
	// tcs is the per-TC states sorted by TC ID, copy-on-write under tcMu: a
	// TC is added the first time it is heard of, a handful of times in an
	// incarnation's life, and looked up on every call, while a snapshot
	// read's wait, the GC horizon and the resend check range over them all —
	// a slice, so none of that walks a map.
	tcMu sync.Mutex
	tcs  atomic.Pointer[[]*tcState]
	// epochRec is the dLSN of the latest KindEpochs snapshot in the DC-log;
	// build writes one, so there always is one. Truncation re-appends a
	// fresh snapshot whenever it would discard this record, so the number
	// and the fences always survive DC crashes. epochMu makes taking a
	// snapshot and appending it one step, so the latest record holds every
	// fence raised before it was taken.
	epochMu  sync.Mutex
	epochRec atomic.Uint64
	// gcHorizon caches the minimum per-TC GC horizon (see refreshHorizon)
	// so the write path can prune versions without scanning the TCs.
	gcHorizon atomic.Uint64
	inflight  *conflictTable // nil unless Config.CheckConflicts
}

// resent reports whether every TC is done resending to the incarnation (see
// bracket). Until then a cached page may be a stable image older than
// operations its TC is still to resend, so the forest consolidates nothing
// (btree.Open): a TC the fences name that never comes back leaves the trees
// unconsolidated for the incarnation's life, which costs space, never data.
func (inc *incarnation) resent() bool {
	for _, s := range inc.states() {
		if !s.resent() {
			return false
		}
	}
	return true
}

// states returns the per-TC states the incarnation knows, sorted by TC ID.
// The slice is never written again: a TC heard of later is in a new one.
func (inc *incarnation) states() []*tcState { return *inc.tcs.Load() }

// known returns the state kept for id, nil if the TC was never heard of.
func (inc *incarnation) known(id base.TCID) *tcState {
	tcs := inc.states()
	if i, ok := slices.BinarySearchFunc(tcs, id, byID); ok {
		return tcs[i]
	}
	return nil
}

func byID(s *tcState, id base.TCID) int { return cmp.Compare(s.id, id) }

// tc returns the state kept for id, registering the TC on first sight.
func (inc *incarnation) tc(id base.TCID) *tcState {
	if s := inc.known(id); s != nil {
		return s
	}
	inc.tcMu.Lock()
	defer inc.tcMu.Unlock()
	old := inc.states()
	i, ok := slices.BinarySearchFunc(old, id, byID)
	if ok {
		return old[i]
	}
	s := &tcState{id: id}
	tcs := slices.Insert(slices.Clip(old), i, s)
	inc.tcs.Store(&tcs)
	return s
}

// DC is one data component. It implements base.Service.
type DC struct {
	cfg   Config
	store *storage.PageStore
	dlog  *wal.Log

	// inc is the serving incarnation: nil while the DC is down, recovering
	// or closed. Every call loads it exactly once.
	inc atomic.Pointer[incarnation]
	// mu serializes the three writers of inc — Crash, Recover, Close — and
	// guards closed. No call that serves a TC takes it.
	mu     sync.Mutex
	closed bool

	performs, dupSkips, unavailable atomic.Uint64
	staleEpochs, conVios            atomic.Uint64
	snapReads, snapWaits            atomic.Uint64
	batches, batchOps               atomic.Uint64
	drainRejects                    atomic.Uint64

	// draining is the operations-plane admission gate (see Drain in
	// admin.go): while set, PerformBatch nacks new operations CodeUnavailable;
	// inflightOps tracks operations currently executing so Quiesced can
	// report when the drain has settled.
	draining    atomic.Bool
	inflightOps atomic.Int64
}

// New opens a DC over its stable media: fresh simulated ones, or with
// Config.Dir the directory a previous incarnation wrote. Media with no
// page are formatted first (a store whose pages lack the catalog fails
// Recover). Either way the DC then starts the way
// it restarts — a process death is a DC crash whose stable media happen to
// be on disk — so Recover builds the first incarnation too.
func New(cfg Config) (*DC, error) {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = 4096
	}
	d := &DC{cfg: cfg, store: storage.NewPageStore()}
	dmedia := storage.NewLogStore()
	if cfg.Dir != "" {
		var err error
		if d.store, err = storage.OpenPageStoreFile(filepath.Join(cfg.Dir, "pages")); err != nil {
			return nil, fmt.Errorf("dc %s: open page journal: %w", cfg.Name, err)
		}
		if dmedia, err = storage.OpenLogStoreFile(filepath.Join(cfg.Dir, "dclog")); err != nil {
			return nil, fmt.Errorf("dc %s: open dc-log: %w", cfg.Name, err)
		}
	}
	var err error
	if d.dlog, err = wal.New(dmedia); err != nil {
		return nil, err
	}
	if d.store.Len() == 0 {
		btree.Format(d.store)
	}
	if err := d.Recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// Name returns the DC's configured name.
func (d *DC) Name() string { return d.cfg.Name }

// EpochOf returns the incarnation-epoch fence currently installed for tc
// (zero until the first begin_restart is seen, and while the DC is down).
// Test hook: dc's and tc's epoch tests, tc's TestCrashDuringRecoverWins.
func (d *DC) EpochOf(tc base.TCID) base.Epoch {
	if inc := d.inc.Load(); inc != nil {
		if s := inc.known(tc); s != nil {
			return base.Epoch(s.epoch.Load())
		}
	}
	return 0
}

// Pool exposes the serving incarnation's buffer pool (nil while down).
func (d *DC) Pool() *buffer.Pool {
	if inc := d.inc.Load(); inc != nil {
		return inc.pool
	}
	return nil
}

// Store exposes the stable page store (tests and invariant checks).
func (d *DC) Store() *storage.PageStore { return d.store }

// DCLog exposes the DC-log (tests read its stable records).
func (d *DC) DCLog() *wal.Log { return d.dlog }

// Tree returns the serving incarnation's B-tree for table, or nil.
func (d *DC) Tree(table string) *btree.Tree {
	if inc := d.inc.Load(); inc != nil {
		return inc.forest.Tree(table)
	}
	return nil
}

// Tables returns the table names in ascending order, as btree.Forest.Tables
// keeps them (the servicetest catalog case relies on it); none while down.
func (d *DC) Tables() []string {
	if inc := d.inc.Load(); inc != nil {
		return inc.forest.Tables()
	}
	return nil
}

// CreateTable durably creates an empty table (administrative operation,
// run at deployment time). Idempotent.
func (d *DC) CreateTable(table string) error {
	inc := d.inc.Load()
	if inc == nil {
		return d.errUnavailable()
	}
	err := inc.forest.CreateTable(table)
	if d.inc.Load() != inc {
		// Created, or refused, in a cache a crash has since discarded: whether
		// the record reached the stable DC-log is for the caller to find out.
		return d.errUnavailable()
	}
	if err != nil {
		return fmt.Errorf("dc %s: create table %s: %w", d.cfg.Name, table, err)
	}
	return nil
}

// advance applies one watermark broadcast to tc's state unless the DC is
// down, the sender's incarnation is fenced, or the TC's resend to this
// incarnation has not ended, and returns the incarnation it advanced (nil if
// none). The checks and the advance are one critical section — ctl, shared
// with BeginRestart's fence raise — so a stale claim either lands entirely
// before the raise or is dropped, never in between.
func (d *DC) advance(tc base.TCID, epoch base.Epoch, step func(*tcState)) *incarnation {
	inc := d.inc.Load()
	if inc == nil {
		return nil
	}
	s := inc.tc(tc)
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.fenced(epoch) || !s.resent() {
		return nil
	}
	step(s)
	return inc
}

// raise lifts a monotonic mark to at least v and reports whether it moved.
func raise(mark *atomic.Uint64, v uint64) bool {
	for {
		cur := mark.Load()
		if v <= cur {
			return false
		}
		if mark.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// EndOfStableLog implements base.Service (§4.2.1) and does nothing: a TC
// sends an operation only once it is stable in its log, so every operation
// the DC holds is within its TC's end of stable log, and nothing waits for
// the mark.
func (d *DC) EndOfStableLog(base.TCID, base.Epoch, base.LSN) {}

// SafeTS implements base.Service: the TC's closed-timestamp broadcast.
// After this call, every commit of that TC with TS <= safe is committed at
// the DC — its writes, stamped with the TS, arrived through the same ordered
// resend/idempotence machinery as any write, and its commit record is forced
// — and the TC will never assign a commit TS at or below safe: a committed
// read now sees the heads the TC stamped at or below safe, and a snapshot at
// T <= safe reads a stable prefix. horizon is the TC's GC watermark.
// Broadcasts from a fenced incarnation are dropped, and so are those of a TC
// that owes this incarnation its resend: the stamped writes the promise
// vouches for may be among what the DC's crash lost.
func (d *DC) SafeTS(tc base.TCID, epoch base.Epoch, safe base.TS, horizon base.TS) {
	inc := d.advance(tc, epoch, func(s *tcState) {
		if raise(&s.safe, uint64(safe)) && s.safeCh != nil {
			close(s.safeCh)
			s.safeCh = nil
		}
		raise(&s.horizon, uint64(horizon))
	})
	if inc != nil {
		inc.refreshHorizon()
	}
}

// refreshHorizon recomputes the cached GC horizon: the minimum per-TC
// horizon. It holds still while any TC the incarnation knows has sent none:
// one just heard of, or one that owes the incarnation its resend, whose
// safe-timestamp broadcasts it drops meanwhile. Either may have snapshots
// open below every horizon the others sent. A TC the fences name that never
// comes back so stops reclamation for the incarnation's life, which costs
// space, never data.
func (inc *incarnation) refreshHorizon() {
	var min uint64
	for _, s := range inc.states() {
		h := s.horizon.Load()
		if h == 0 {
			return
		}
		if min == 0 || h < min {
			min = h
		}
	}
	raise(&inc.gcHorizon, min)
}

// snapshotSafeWait bounds one snapshot read's wait for the safe timestamp
// to cover its TS; on expiry the read nacks CodeUnavailable and the
// client's resend re-enters the wait.
const snapshotSafeWait = time.Second

// waitSnapshotSafe blocks until every registered TC's safe timestamp is at
// or above t. This is the lock-free read path's only synchronization: it
// never touches a lock manager, it just waits out the commits below t.
func (d *DC) waitSnapshotSafe(ctx context.Context, inc *incarnation, t base.TS) base.Code {
	var deadline *time.Timer
	for {
		var lag *tcState
		for _, s := range inc.states() {
			if s.safe.Load() < uint64(t) {
				lag = s
				break
			}
		}
		if lag == nil {
			if deadline != nil {
				deadline.Stop()
			}
			return base.CodeOK
		}
		if deadline == nil {
			d.snapWaits.Add(1)
			deadline = time.NewTimer(snapshotSafeWait)
			defer deadline.Stop()
		}
		ch := lag.safeChanged()
		if lag.safe.Load() >= uint64(t) {
			continue // advanced between the scan and the subscribe
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return base.CodeCancelled
		case <-deadline.C:
			return base.CodeUnavailable
		}
	}
}

// LowWaterMark implements base.Service (§4.2.1): the TC has received
// replies for every operation with LSN <= lwm, so LSNlw on cached pages
// may advance. The TC sends no mark above its stable log, so a restarted TC,
// which reuses the LSNs above it, finds none of them claimed. Claims from a
// fenced incarnation are dropped, and so are those of a TC that owes this
// incarnation its resend: they count replies of the incarnation before, and a
// page flushed under them would claim operations it never held.
func (d *DC) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	d.advance(tc, epoch, func(s *tcState) { raise(&s.lwm, uint64(lwm)) })
}

// Checkpoint implements base.Service (§4.2.1): make stable all pages that
// contain effects of operations with LSN < newRSSP for tc, releasing the
// TC's resend obligation below newRSSP. While the pool evicts — it has
// evicted since the TC's previous checkpoint here — it writes back every
// dirty page of the TC instead, a superset the contract allows: a page left
// dirty would be written back on a miss's path. A checkpoint from a fenced
// incarnation is refused — releasing resend obligations based on a dead
// incarnation's view would be unrecoverable — and so is one before the TC's
// resend to this incarnation has ended (ErrStaleDC): the pages it would make
// stable may still miss operations below newRSSP. ctx is asked once, on
// entry: a checkpoint waits for nothing the TC sends, only for the page
// store and the DC-log.
func (d *DC) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	inc := d.inc.Load()
	if inc == nil {
		return d.errUnavailable()
	}
	s := inc.tc(tc)
	s.ctl.Lock()
	if s.fenced(epoch) {
		cur := s.epoch.Load()
		s.ctl.Unlock()
		return fmt.Errorf("dc %s: checkpoint for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	if !s.resent() {
		s.ctl.Unlock()
		return fmt.Errorf("dc %s: checkpoint for tc %d before its resend to incarnation %d ended: %w",
			d.cfg.Name, tc, inc.n, base.ErrStaleDC)
	}
	s.ctl.Unlock()
	pool := inc.pool
	ev := pool.Stats().Evictions
	evicting := s.evictions.Swap(ev) != ev
	err := pool.FlushAll(false, func(pg *page.Page) bool {
		first, ok := pg.FirstDirty[tc]
		return ok && (evicting || first < newRSSP)
	})
	if err != nil {
		return err
	}
	// A consolidation's page keeps its own FirstDirty, not its right
	// sibling's, so an operation below newRSSP may be held only by the
	// image the DC-log record of the consolidation carries: make every
	// system transaction so far stable before the TC forgets the operation.
	if !inc.log.Force() {
		return d.errUnavailable()
	}
	// Pages dirtied only by system transactions (branch pages, the catalog):
	// flushing them lets the DC-log truncate.
	_ = pool.FlushAll(false, func(pg *page.Page) bool {
		return pg.Dirty && len(pg.FirstDirty) == 0
	})
	d.truncateDCLog(inc)
	return nil
}

// truncateDCLog discards DC-log records whose effects are fully stable:
// everything below the minimum RecDLSN among dirty cached pages and above
// nothing volatile, then frees the pages the discarded records deleted. The
// KindEpochs snapshot is not page-backed, so if truncation would discard the
// latest one a fresh snapshot is forced first — the incarnation number and
// the fences must survive any crash.
func (d *DC) truncateDCLog(inc *incarnation) {
	// A system transaction appends its record and then dirties its pages, both
	// under its tree's structure lock (the forest's, for a table creation), so
	// under every one of them the dirty pages bound every record appended so
	// far. Read outside, a record already forced whose pages were not dirty
	// yet would be discarded, and a crash before they were flushed would lose
	// the modification. The truncation needs no lock: whatever is appended
	// after the walk lies above minD.
	var minD base.LSN
	inc.forest.Exclusive(func() {
		minD = d.dlog.LastLSN() + 1
		inc.pool.Pages(func(pg *page.Page) {
			pg.L.RLock()
			if pg.Dirty && pg.RecDLSN != 0 && base.LSN(pg.RecDLSN) < minD {
				minD = base.LSN(pg.RecDLSN)
			}
			pg.L.RUnlock()
		})
		// Clamped before the snapshot's force below makes the whole tail
		// stable.
		minD = min(minD, d.dlog.EOSL()+1)
	})
	// Every page the walk found clean was written before it: make those
	// writes survive a power loss before either log forgets what they hold —
	// the DC-log below, the TC's log once Checkpoint returns.
	d.store.Sync()
	if base.LSN(inc.epochRec.Load()) < minD && !inc.logEpochs() {
		return
	}
	btree.TruncateLog(d.dlog, d.store, minD, inc.log.Truncate)
}

// AppendSMO implements dclog.Logger through the incarnation's generation of
// the DC-log: zero, and nothing appended, once Crash has ended it.
func (inc *incarnation) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(inc.log.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger; once the generation has ended it forces
// nothing.
func (inc *incarnation) ForceSMO(dl base.DLSN) { inc.log.ForceTo(base.LSN(dl)) }

// logEpochs forces a snapshot of the incarnation's number and every TC's
// fence into the DC-log, and reports whether it did: not once Crash has
// ended the incarnation.
func (inc *incarnation) logEpochs() bool {
	inc.epochMu.Lock()
	defer inc.epochMu.Unlock()
	tcs := inc.states()
	snap := make([]dclog.TCEpoch, 0, len(tcs))
	for _, s := range tcs { // in TC ID order, so equal fences encode alike
		if e := s.epoch.Load(); e != 0 {
			snap = append(snap, dclog.TCEpoch{TC: s.id, Epoch: base.Epoch(e)})
		}
	}
	rec := &dclog.Epochs{Inc: inc.n, Epochs: snap}
	dlsn := inc.AppendSMO(dclog.KindEpochs, rec.Encode())
	if dlsn == 0 {
		return false
	}
	raise(&inc.epochRec, uint64(dlsn))
	return inc.log.ForceTo(base.LSN(dlsn))
}

// errUnavailable is the typed down/closed/recovering failure; the message
// embeds the sentinel's text so the wire layer can rehydrate it on the
// other side of a string-only control reply.
func (d *DC) errUnavailable() error {
	return fmt.Errorf("dc %s: %w", d.cfg.Name, base.ErrUnavailable)
}

// Close permanently shuts the DC down: it stops serving (operations nack
// CodeUnavailable, control calls fail typed) and will not recover.
// Idempotent — a second Close, or a Close after Crash, is a no-op. The DC
// has no background goroutines; Close exists so Deployment.Close can make
// "everything stopped" explicit and double-closes are safe.
func (d *DC) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.inc.Store(nil)
}

// Stats returns a snapshot of counters.
func (d *DC) Stats() Stats {
	return Stats{
		Performs:      d.performs.Load(),
		DupSkips:      d.dupSkips.Load(),
		Unavailable:   d.unavailable.Load(),
		StaleEpochs:   d.staleEpochs.Load(),
		ConflictViols: d.conVios.Load(),
		SnapshotReads: d.snapReads.Load(),
		SnapshotWaits: d.snapWaits.Load(),
	}
}

// conflictTable is the debug checker for the §1.2 invariant: the TC never
// sends logically conflicting operations concurrently to a DC.
type conflictTable struct {
	mu  sync.Mutex
	ops map[*base.Op]struct{}
}

func newConflictTable() *conflictTable {
	return &conflictTable{ops: make(map[*base.Op]struct{})}
}

// enter registers ops, a run of one batch, reporting how many conflicting
// operations were in flight before them (excluding duplicates of each
// itself): a run's operations execute one after the other, so they do not
// conflict among themselves. A duplicate is told by the request ID, (TC,
// LSN). Every unlogged operation of a TC shares LSN zero, so two of them
// look like one request here — which loses nothing: only reads are
// unlogged, and two reads never conflict (Op.ConflictsWith). A write always
// has an LSN of its own, so a read beside it is counted.
func (c *conflictTable) enter(ops ...*base.Op) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	conflicts := 0
	for _, op := range ops {
		for other := range c.ops {
			if other.TC == op.TC && other.LSN == op.LSN {
				continue // resend duplicate of the same request
			}
			if op.ConflictsWith(other) {
				conflicts++
			}
		}
	}
	for _, op := range ops {
		c.ops[op] = struct{}{}
	}
	return conflicts
}

func (c *conflictTable) exit(ops ...*base.Op) {
	c.mu.Lock()
	for _, op := range ops {
		delete(c.ops, op)
	}
	c.mu.Unlock()
}

// discardStale drops tc's entries stamped with an epoch below the fence:
// fenced operations still draining through the DC (e.g. queued on a leaf
// latch) must not count as conflicts against the new incarnation. Their
// own deferred exit calls become harmless double-deletes.
func (c *conflictTable) discardStale(tc base.TCID, fence base.Epoch) {
	c.mu.Lock()
	for op := range c.ops {
		if op.TC == tc && op.Epoch < fence {
			delete(c.ops, op)
		}
	}
	c.mu.Unlock()
}
