// Package dc implements the Data Component (§4.1.2): a server for logical,
// record-oriented operations that knows nothing about transactions. It
// organizes, searches, updates, caches, and makes durable the data in the
// database; it makes each individual operation atomic and idempotent so
// that the TC's resend discipline yields exactly-once execution (§4.2).
//
// All knowledge of pages lives here. Structure modifications are system
// transactions on the DC-log (package dclog); the abstract-LSN machinery
// (package ablsn) provides idempotence despite out-of-order operation
// arrival (§5.1); the buffer pool (package buffer) enforces the causality
// and WAL gates; and a TC's failure is handled by the targeted cache reset
// of §5.3.2/§6.1.2, which undoes the operations the TC lost from the undo
// tails of the cached pages that hold them (package page). What is done to
// the physical structure as a whole — catalog, table creation, redo of
// system transactions — is btree's and shared with the monolith baseline;
// this package adds the operations, the per-TC protocol state and the DC's
// own life cycle.
//
// Everything volatile a call needs is one incarnation (see the type),
// published atomically: a call loads it once and serves from it alone.
package dc

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
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
	// Dir, when nonempty, backs the DC's stable media (page store and
	// DC-log) with that filesystem directory so they survive process death
	// — what a standalone cmd/unbundled-dc needs to honor checkpoint
	// contracts across kill -9. Empty keeps the in-memory simulated media.
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
	ResetPages    uint64 // pages reset by partial-failure restarts
	RolledBack    uint64 // operations those resets undid
	ConflictViols uint64 // debug conflict-checker violations (must be 0)
	SnapshotReads uint64 // snapshot-flavor reads served
	SnapshotWaits uint64 // snapshot reads that had to wait out a safe TS
}

// tcState is the DC's per-TC bookkeeping: the watermarks that drive
// flushing and pruning, plus the incarnation-epoch fence.
type tcState struct {
	// ctl serializes the control plane — epoch installs and the restart
	// sweep (BeginRestart), activation (EndRestart), checkpoint admission,
	// and watermark advances. The wire server dispatches control calls in
	// their own goroutines and the fabric duplicates deliveries, so every
	// check-then-act on this state must hold ctl or a duplicated/reordered
	// delivery can double-run the sweep, regress the fence, or slip a
	// stale watermark past a concurrent fence raise. Reads on the Perform
	// hot path stay lock-free via the atomics.
	ctl  sync.Mutex
	eosl atomic.Uint64
	lwm  atomic.Uint64
	// epoch is the fence installed by the TC's last begin_restart (zero
	// until the first restart is seen): operations, watermarks, and control
	// calls stamped with an older epoch are refused. It only ever rises.
	epoch atomic.Uint64
	// restarting is true between begin_restart and end_restart: the staged
	// epoch is fencing already, but normal processing (checkpoints) has not
	// been re-admitted yet.
	restarting atomic.Bool

	// safe is the TC's closed timestamp: the TC promises that every commit
	// with TS <= safe has been finalized at this DC and that it will never
	// assign a commit TS at or below it again. A snapshot read at T waits
	// until every registered TC's safe covers T.
	safe atomic.Uint64
	// horizon is the TC's GC watermark: no live or future snapshot of that
	// TC reads below it, so versions under the minimum horizon may be
	// reclaimed.
	horizon atomic.Uint64
	// safeCh, when non-nil, is closed under ctl the next time safe
	// advances; snapshot waiters subscribe through safeChanged.
	safeCh chan struct{}
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

// incarnation is everything volatile the DC serves from, as one value: the
// buffer pool, the trees opened over it, the per-TC protocol state and the
// conflict checker. Recover (and so New) builds one whole from the stable
// media and publishes it; Crash and Close drop it.
// Nothing in it outlives a crash — the epoch fences are rebuilt from the
// DC-log, everything else the TCs re-establish — and a call that loaded it
// before a crash finishes on it: such work lands in a discarded cache, which
// is precisely the semantics of losing volatile state in the crash.
type incarnation struct {
	pool   *buffer.Pool
	forest *btree.Forest
	// tcs is copy-on-write under tcMu: a TC is added the first time it is
	// heard of, a handful of times in an incarnation's life, and looked up
	// on every call.
	tcMu sync.Mutex
	tcs  atomic.Pointer[map[base.TCID]*tcState]
	// epochRec is the dLSN of the latest KindEpochs snapshot in the DC-log
	// (zero when no epoch has ever been staged). Truncation re-appends a
	// fresh snapshot whenever it would discard this record, so the fences
	// always survive DC crashes.
	epochRec atomic.Uint64
	// gcHorizon caches the minimum nonzero per-TC GC horizon so the write
	// path can prune versions without scanning the TCs.
	gcHorizon atomic.Uint64
	inflight  *conflictTable // nil unless Config.CheckConflicts
}

// eosl is the end of tc's stable log as tc last said it: every operation of
// tc at or below it is forced, and so out of reach of a TC crash.
func (inc *incarnation) eosl(tc base.TCID) base.LSN { return base.LSN(inc.tc(tc).eosl.Load()) }

// tc returns the state kept for id, registering the TC on first sight.
func (inc *incarnation) tc(id base.TCID) *tcState {
	if s := (*inc.tcs.Load())[id]; s != nil {
		return s
	}
	inc.tcMu.Lock()
	defer inc.tcMu.Unlock()
	old := *inc.tcs.Load()
	if s := old[id]; s != nil {
		return s
	}
	tcs := make(map[base.TCID]*tcState, len(old)+1)
	for k, v := range old {
		tcs[k] = v
	}
	s := &tcState{}
	tcs[id] = s
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
	staleEpochs                     atomic.Uint64
	resetPages, rolledBack, conVios atomic.Uint64
	snapReads, snapWaits            atomic.Uint64
	batches, batchOps, finalizes    atomic.Uint64
	drainRejects                    atomic.Uint64

	// draining is the operations-plane admission gate (see Drain in
	// admin.go): while set, Perform nacks new operations CodeUnavailable;
	// inflightOps tracks operations currently executing so Quiesced can
	// report when the drain has settled.
	draining    atomic.Bool
	inflightOps atomic.Int64
}

// New opens a DC over its stable media: fresh simulated ones, or with
// Config.Dir the directory a previous incarnation wrote. Media with no
// catalog page are formatted first. Either way the DC then starts the way
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
		if d.store, err = storage.OpenPageStoreDir(filepath.Join(cfg.Dir, "pages")); err != nil {
			return nil, fmt.Errorf("dc %s: open page dir: %w", cfg.Name, err)
		}
		if dmedia, err = storage.OpenLogStoreFile(filepath.Join(cfg.Dir, "dclog")); err != nil {
			return nil, fmt.Errorf("dc %s: open dc-log: %w", cfg.Name, err)
		}
	}
	var err error
	if d.dlog, err = wal.New(dmedia); err != nil {
		return nil, err
	}
	if !d.store.Exists(btree.CatalogPageID) {
		if err := btree.Format(d.store); err != nil {
			return nil, fmt.Errorf("dc %s: %w", cfg.Name, err)
		}
	}
	if err := d.Recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// AppendSMO implements dclog.Logger.
func (d *DC) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(d.dlog.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger.
func (d *DC) ForceSMO(dl base.DLSN) { d.dlog.ForceTo(base.LSN(dl)) }

// Name returns the DC's configured name.
func (d *DC) Name() string { return d.cfg.Name }

// EpochOf returns the incarnation-epoch fence currently installed for tc
// (zero until the first begin_restart is seen, and while the DC is down).
func (d *DC) EpochOf(tc base.TCID) base.Epoch {
	if inc := d.inc.Load(); inc != nil {
		if s := (*inc.tcs.Load())[tc]; s != nil {
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

// Store exposes the stable page store (experiments and invariant checks).
func (d *DC) Store() *storage.PageStore { return d.store }

// DCLog exposes the DC-log (experiments measure SMO log volume).
func (d *DC) DCLog() *wal.Log { return d.dlog }

// Tree returns the serving incarnation's B-tree for table, or nil.
func (d *DC) Tree(table string) *btree.Tree {
	if inc := d.inc.Load(); inc != nil {
		return inc.forest.Tree(table)
	}
	return nil
}

// Tables returns the table names (order not guaranteed; none while down).
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
	if err := inc.forest.CreateTable(table); err != nil {
		return fmt.Errorf("dc %s: create table %s: %w", d.cfg.Name, table, err)
	}
	if d.inc.Load() != inc {
		// Created in a cache a crash has since discarded: whether the
		// record reached the stable DC-log is for the caller to find out.
		return d.errUnavailable()
	}
	return nil
}

// advance applies one watermark broadcast to tc's state unless the DC is
// down or the sender's incarnation is fenced, and returns the incarnation
// it advanced (nil if none). The fence check and the advance are one
// critical section — ctl, shared with BeginRestart's fence raise and
// re-base — so a stale claim either lands entirely before the raise (and is
// zeroed by the re-base) or is dropped, never in between.
func (d *DC) advance(tc base.TCID, epoch base.Epoch, step func(*tcState)) *incarnation {
	inc := d.inc.Load()
	if inc == nil {
		return nil
	}
	s := inc.tc(tc)
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.fenced(epoch) {
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

// EndOfStableLog implements base.Service (§4.2.1): all operations with
// LSN <= eosl are stable in the TC log; causality then allows the DC to
// make them stable too. Broadcasts from a fenced incarnation are dropped.
func (d *DC) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	if inc := d.advance(tc, epoch, func(s *tcState) { raise(&s.eosl, uint64(eosl)) }); inc != nil {
		inc.pool.Kick() // the flusher re-tests the gates the watermark opened
	}
}

// SafeTS implements base.Service: the TC's closed-timestamp broadcast.
// After this call, every commit of that TC with TS <= safe is finalized at
// the DC (the finalize operations arrived through the same ordered
// resend/idempotence machinery as any write), and the TC will never assign
// a commit TS at or below safe — so a snapshot at T <= safe reads a stable
// prefix. horizon is the TC's GC watermark. Broadcasts from a fenced
// incarnation are dropped, mirroring EndOfStableLog.
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

// refreshHorizon recomputes the cached GC horizon: the minimum nonzero
// per-TC horizon. A TC that has never broadcast one contributes no
// constraint (it also hands out no snapshots), and zero means "never
// reclaim" overall.
func (inc *incarnation) refreshHorizon() {
	var min uint64
	for _, s := range *inc.tcs.Load() {
		if h := s.horizon.Load(); h != 0 && (min == 0 || h < min) {
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
// never touches a lock manager, it just waits out commit finalization.
func (d *DC) waitSnapshotSafe(ctx context.Context, inc *incarnation, t base.TS) base.Code {
	var deadline *time.Timer
	for {
		var lag *tcState
		for _, s := range *inc.tcs.Load() {
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
// may advance (bounded by EOSL; see buffer and ablsn for why). Claims from
// a fenced incarnation are dropped: BeginRestart re-based the mark to zero
// precisely because the restarted TC reuses the dead incarnation's LSN
// space, and a stale in-flight claim would prune abstract LSNs into it.
func (d *DC) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	if inc := d.advance(tc, epoch, func(s *tcState) { raise(&s.lwm, uint64(lwm)) }); inc != nil {
		inc.pool.Kick()
	}
}

// Checkpoint implements base.Service (§4.2.1): make stable all pages that
// contain effects of operations with LSN < newRSSP for tc, releasing the
// TC's resend obligation below newRSSP. The TC has forced its log through
// newRSSP before calling, so the causality gate is open. A checkpoint from
// a fenced incarnation is refused — releasing resend obligations based on
// a dead incarnation's view would be unrecoverable — and so is one racing
// an unfinished restart.
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
	if s.restarting.Load() {
		s.ctl.Unlock()
		return fmt.Errorf("dc %s: checkpoint for tc %d during its restart", d.cfg.Name, tc)
	}
	s.ctl.Unlock()
	pool := inc.pool
	err := pool.FlushAll(true, func(pg *page.Page) bool {
		first, ok := pg.FirstDirty[tc]
		return ok && first < newRSSP
	})
	if err != nil {
		return err
	}
	// Best-effort pass over pages dirtied only by system transactions
	// (branch pages, the catalog): flushing them lets the DC-log truncate.
	// Pages gated by other TCs' log stability are skipped, bounding the
	// truncation point accordingly.
	_ = pool.FlushAll(false, func(pg *page.Page) bool {
		return pg.Dirty && len(pg.FirstDirty) == 0
	})
	d.truncateDCLog(inc)
	return nil
}

// truncateDCLog discards DC-log records whose effects are fully stable:
// everything below the minimum RecDLSN among dirty cached pages. The
// epoch-fence snapshot is not page-backed, so if truncation would discard
// the latest KindEpochs record a fresh snapshot is forced first — the
// fences must survive any crash.
func (d *DC) truncateDCLog(inc *incarnation) {
	minD := d.dlog.LastLSN() + 1
	inc.pool.Pages(func(pg *page.Page) {
		pg.L.RLock()
		if pg.Dirty && pg.RecDLSN != 0 && base.LSN(pg.RecDLSN) < minD {
			minD = base.LSN(pg.RecDLSN)
		}
		pg.L.RUnlock()
	})
	stable := d.dlog.EOSL()
	if minD > stable+1 {
		minD = stable + 1
	}
	if rec := inc.epochRec.Load(); rec != 0 && base.LSN(rec) < minD {
		d.logEpochs(inc)
	}
	d.dlog.Truncate(minD)
}

// logEpochs forces a full per-TC epoch snapshot into the DC-log.
func (d *DC) logEpochs(inc *incarnation) {
	tcs := *inc.tcs.Load()
	snap := make([]dclog.TCEpoch, 0, len(tcs))
	for id, s := range tcs {
		if e := s.epoch.Load(); e != 0 {
			snap = append(snap, dclog.TCEpoch{TC: id, Epoch: base.Epoch(e)})
		}
	}
	if len(snap) == 0 {
		return
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].TC < snap[j].TC })
	rec := &dclog.Epochs{Epochs: snap}
	dlsn := d.AppendSMO(dclog.KindEpochs, rec.Encode())
	raise(&inc.epochRec, uint64(dlsn))
	d.ForceSMO(dlsn)
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
		ResetPages:    d.resetPages.Load(),
		RolledBack:    d.rolledBack.Load(),
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

// enter registers op, reporting how many conflicting operations are
// currently in flight (excluding duplicates of op itself). A duplicate is
// told by the request ID, (TC, LSN). Every unlogged operation of a TC shares
// LSN zero, so two of them look like one request here — which loses nothing:
// only reads are unlogged, and two reads never conflict (Op.ConflictsWith). A
// write always has an LSN of its own, so a read beside it is counted.
func (c *conflictTable) enter(op *base.Op) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	conflicts := 0
	for other := range c.ops {
		if other.TC == op.TC && other.LSN == op.LSN {
			continue // resend duplicate of the same request
		}
		if op.ConflictsWith(other) {
			conflicts++
		}
	}
	c.ops[op] = struct{}{}
	return conflicts
}

func (c *conflictTable) exit(op *base.Op) {
	c.mu.Lock()
	delete(c.ops, op)
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
