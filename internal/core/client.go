package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/tc"
)

// SnapshotPolicy selects how a read-only transaction obtains its
// consistent view; see the tc package constants for the semantics.
type SnapshotPolicy = tc.SnapshotPolicy

const (
	// SnapshotFresh reads at a fresh timestamp after waiting out the
	// clock's uncertainty window: externally consistent (the default).
	SnapshotFresh SnapshotPolicy = tc.SnapshotFresh
	// SnapshotBounded reads up to TxnOptions.Staleness behind now, never
	// waiting on the clock.
	SnapshotBounded SnapshotPolicy = tc.SnapshotBounded
	// SnapshotLocked is the legacy lock-based read-only posture.
	SnapshotLocked SnapshotPolicy = tc.SnapshotLocked
)

// TxnOptions shapes one client transaction. The zero value is a plain
// read-write transaction, auto-routed across the deployment's TCs, with
// the default retry policy.
type TxnOptions struct {
	// Versioned makes writes keep before versions (§6.2.2), enabling
	// cross-TC read-committed readers, snapshot visibility, and cheap
	// undo.
	Versioned bool
	// ReadOnly refuses every mutation with ErrReadOnly and (unless
	// Snapshot is SnapshotLocked) serves every Read/Scan from a snapshot:
	// a consistent view at one timestamp, read at the DC without locks
	// and without TC round trips.
	ReadOnly bool
	// Snapshot selects the read-only view policy; ignored unless ReadOnly.
	Snapshot SnapshotPolicy
	// Staleness is how far behind now a SnapshotBounded view may read;
	// ignored otherwise.
	Staleness time.Duration
	// LockTimeout overrides the TC's configured lock-wait bound for this
	// transaction: positive bounds each wait, negative waits forever, zero
	// keeps the TC default.
	LockTimeout time.Duration
	// TC pins the transaction to one transactional component by its ID
	// (matching TC.ID; in-process deployments default to IDs 1..TCs).
	// Zero routes automatically: by WriteSet ownership when the
	// deployment's placement partitions update rights, else round-robin
	// across TCs with a least-inflight tiebreak.
	//
	// Locks live per TC, so two TCs serialize nothing against each other:
	// when a deployment runs more than one TC, the §6.1 contract applies —
	// update responsibility for each key must be partitioned among the
	// TCs. Declare the partition in Options.Placement and hint writes via
	// WriteSet (or RunTxnAt) instead of hand-computing this pin; the TC
	// itself enforces the partition (ErrWrongOwner) either way.
	TC int
	// WriteSet hints the transaction's write intent: table -> keys it
	// will update. When the deployment's placement partitions update
	// ownership (§6.1), the transaction is routed to the TC owning those
	// keys — every hinted key must resolve to the same owner, and a hint
	// spanning two partitions fails with ErrWrongOwner before the
	// transaction starts (a §6.1 deployment has no distributed
	// transactions to offer). Keys nobody owns contribute nothing; if no
	// hinted key is owned, round-robin applies. Ignored when TC pins
	// explicitly or for ReadOnly transactions (reads run anywhere).
	// The hint routes; it does not limit — but writes outside the owner's
	// partition will abort with ErrWrongOwner at the TC.
	WriteSet map[string][]string
	// MaxAttempts bounds RunTxn's automatic retry of transient aborts
	// (deadlock victims, lock timeouts, component-unavailable windows):
	// total attempts including the first. Zero means the default (8); 1
	// disables retry. Begin ignores it.
	MaxAttempts int
	// RetryBackoff is RunTxn's initial inter-attempt backoff, doubling per
	// attempt (capped at 50ms). Zero means the default (200µs).
	RetryBackoff time.Duration
}

// tcOpts is the single conversion point from deployment-level options to
// TC-level options: every tc.TxnOptions field is threaded through a
// same-named field here (options_test.go enforces this by reflection, so
// a field added to one struct but not the other fails the build's tests,
// not a user's transaction).
func (o TxnOptions) tcOpts() tc.TxnOptions {
	return tc.TxnOptions{
		Versioned:   o.Versioned,
		ReadOnly:    o.ReadOnly,
		Snapshot:    o.Snapshot,
		Staleness:   o.Staleness,
		LockTimeout: o.LockTimeout,
	}
}

// Client is the deployment-level transaction API: it routes transactions
// across the deployment's TCs (or honors a pin), retries transient aborts
// with backoff, and threads the caller's context through every wait in the
// stack — lock queues, wire resend/pause loops, and commit barriers.
//
// A Client is safe for concurrent use; Deployment.Client returns a shared
// instance. With multiple TCs, see TxnOptions.TC for the key-ownership
// contract auto-routing relies on.
type Client struct {
	dep *Deployment
	rr  atomic.Uint64
}

// Client returns the deployment's shared transaction client.
func (d *Deployment) Client() *Client {
	d.clientOnce.Do(func() { d.client = &Client{dep: d} })
	return d.client
}

const (
	defaultAttempts = 8
	defaultBackoff  = 200 * time.Microsecond
	maxBackoff      = 50 * time.Millisecond
)

// pick selects the TC for one attempt: the pinned one, the §6.1 owner of
// the hinted write set, or round-robin with a least-inflight tiebreak —
// the rotating start index spreads ties, and a TC running fewer
// transactions wins outright so a stalled or loaded TC sheds new work.
func (c *Client) pick(opts TxnOptions) (*tc.TC, error) {
	tcs := c.dep.TCs
	if opts.TC != 0 {
		// Bounds before the uint16 conversion: a negative or oversized pin
		// must error, not alias a valid TC ID.
		if opts.TC < 1 || opts.TC > math.MaxUint16 {
			return nil, fmt.Errorf("unbundled: no TC with ID %d in this deployment", opts.TC)
		}
		return c.byID(base.TCID(opts.TC))
	}
	if len(opts.WriteSet) > 0 && !opts.ReadOnly {
		if t, err := c.owner(opts.WriteSet); err != nil || t != nil {
			return t, err
		}
	}
	start := int(c.rr.Add(1)-1) % len(tcs)
	var best *tc.TC
	bestLoad := 0
	for i := 0; i < len(tcs); i++ {
		cand := tcs[(start+i)%len(tcs)]
		// A draining TC sheds new work entirely: auto-routed transactions
		// flow to its peers, which is what lets an operator quiesce one TC
		// of a fleet without failing a single client call. So does one that
		// is down (crashed, not yet recovered): it admits nothing, and with
		// no transaction in its table it would otherwise win every tiebreak.
		if cand.Draining() || cand.NeedsRecovery() {
			continue
		}
		if load := cand.ActiveTxns(); best == nil || load < bestLoad {
			best, bestLoad = cand, load
		}
	}
	if best == nil {
		// Every TC is draining or down. Hand the attempt to one anyway: its
		// admission gate rejects typed (ErrDraining or ErrUnavailable, both
		// transient), so RunTxn's backoff rides out a drain that lifts, or a
		// restart that completes, mid-retry, and a caller that exhausts its
		// attempts gets the honest error.
		best = tcs[start]
	}
	return best, nil
}

func (c *Client) byID(id base.TCID) (*tc.TC, error) {
	for _, t := range c.dep.TCs {
		if t.ID() == id {
			return t, nil
		}
	}
	return nil, fmt.Errorf("unbundled: no TC with ID %d in this deployment", id)
}

// owner resolves the §6.1 owner of a hinted write set: the unique owning
// TC, nil when nothing in the set is owned (caller falls back to
// round-robin). A set spanning two partitions, or owned by a TC running
// in another process, fails typed with ErrWrongOwner — routing cannot
// make such a transaction legal, only re-partitioning (or sending it to
// the process that owns it) can.
func (c *Client) owner(ws map[string][]string) (*tc.TC, error) {
	var owner base.TCID
	var otable, okey string
	for table, keys := range ws {
		for _, key := range keys {
			o, err := c.dep.router.Owner(table, key)
			if err != nil {
				return nil, fmt.Errorf("unbundled: route write set: %w", err)
			}
			if o == 0 || o == owner {
				continue
			}
			if owner != 0 {
				return nil, fmt.Errorf(
					"unbundled: write set spans ownership partitions (%s/%q owned by tc %d, %s/%q by tc %d): %w",
					otable, okey, owner, table, key, o, base.ErrWrongOwner)
			}
			owner, otable, okey = o, table, key
		}
	}
	if owner == 0 {
		return nil, nil
	}
	t, err := c.byID(owner)
	if err != nil {
		return nil, fmt.Errorf("unbundled: %s/%q is owned by tc %d, which is not in this deployment: %w",
			otable, okey, owner, base.ErrWrongOwner)
	}
	return t, nil
}

// Begin starts a single transaction on a routed (or pinned) TC. The caller
// owns its lifecycle: Commit or Abort must be called, and no automatic
// retry applies. The transaction is bound to ctx — see RunTxn for the
// cancellation semantics.
func (c *Client) Begin(ctx context.Context, opts TxnOptions) (*tc.Txn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, base.CancelErr(ctx)
	}
	tcx, err := c.pick(opts)
	if err != nil {
		return nil, err
	}
	if tcx.Draining() {
		// Only reachable when the pick had no choice (a pin, a §6.1 owner,
		// or a fleet-wide drain): admission is refused typed and transient,
		// matching the RunTxnOnce gate.
		return nil, fmt.Errorf("unbundled: tc %d: %w", tcx.ID(), base.ErrDraining)
	}
	return tcx.Begin(ctx, opts.tcOpts()), nil
}

// RunTxn runs fn inside a transaction: commit on success, abort on error.
// Transient aborts — deadlock victims, lock timeouts, component-
// unavailable windows (IsTransient) — are retried as fresh transactions
// with exponential backoff, re-routed per attempt, up to
// opts.MaxAttempts. Permanent failures (cancellation, stale epochs,
// not-found/duplicate, read-only violations) return immediately.
//
// ctx bounds the whole call: lock waits, wire waits, retry backoffs, and
// the commit barrier all return promptly with an ErrCancelled-wrapped
// ctx error once it is done. The delivery of already-logged writes is the
// one thing cancellation never interrupts — the resend/redo contract
// finishes those in the background.
func (c *Client) RunTxn(ctx context.Context, opts TxnOptions, fn func(*tc.Txn) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = defaultAttempts
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return base.CancelErr(ctx)
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		var tcx *tc.TC
		tcx, err = c.pick(opts)
		if err != nil {
			return err
		}
		err = tcx.RunTxnOnce(ctx, opts.tcOpts(), fn)
		if err == nil {
			return nil
		}
		// An ambiguous commit is never retried, even when the underlying
		// failure is transient: the commit record is already in the log, so
		// the transaction may be a winner — re-executing fn would apply its
		// effects twice.
		if !base.IsTransient(err) || errors.Is(err, tc.ErrCommitAmbiguous) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// Snapshot is an explicit multi-read consistent view: a read-only
// snapshot transaction whose Reads and Scans all observe the database at
// one timestamp, without locks and without TC round trips. Close releases
// it (until then it pins the version-GC horizon at its timestamp). Like a
// transaction, a Snapshot is used from a single goroutine.
type Snapshot struct {
	txn *tc.Txn
}

// Snapshot opens a fresh consistent view at the current time: Begin waits
// out the clock's uncertainty window, so every transaction whose commit
// completed before the call is visible in the view. For bounded-staleness
// or lock-based read-only policies, use Begin with TxnOptions.ReadOnly
// and the Snapshot/Staleness knobs instead.
func (c *Client) Snapshot(ctx context.Context) (*Snapshot, error) {
	x, err := c.Begin(ctx, TxnOptions{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	return &Snapshot{txn: x}, nil
}

// TS returns the view's timestamp.
func (s *Snapshot) TS() base.TS { return s.txn.SnapshotTS() }

// Read returns the value of key as of the view's timestamp.
func (s *Snapshot) Read(table, key string) ([]byte, bool, error) {
	return s.txn.Read(table, key)
}

// Scan range-reads [lo, hi) as of the view's timestamp. hi == "" scans to
// the end of the table's partition; limit <= 0 means unlimited.
func (s *Snapshot) Scan(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	return s.txn.Scan(table, lo, hi, limit)
}

// Close releases the view. Idempotent.
func (s *Snapshot) Close() error {
	if err := s.txn.Commit(); err != nil && !errors.Is(err, tc.ErrTxnDone) {
		return err
	}
	return nil
}

// RunTxnAt runs fn like RunTxn with (table, key) hinted as write intent:
// the transaction is routed to the TC owning that key per the
// deployment's §6.1 placement, sparing callers the hand-computed
// TxnOptions.TC pin. The hint merges into any WriteSet already in opts.
func (c *Client) RunTxnAt(ctx context.Context, table, key string, opts TxnOptions, fn func(*tc.Txn) error) error {
	ws := make(map[string][]string, len(opts.WriteSet)+1)
	for t, ks := range opts.WriteSet {
		ws[t] = ks
	}
	ws[table] = append(append([]string(nil), ws[table]...), key)
	opts.WriteSet = ws
	return c.RunTxn(ctx, opts, fn)
}
