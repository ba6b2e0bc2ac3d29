// Package unbundled is a faithful implementation of "Unbundling
// Transaction Services in the Cloud" (Lomet, Fekete, Weikum, Zwilling,
// CIDR 2009): a database kernel factored into transactional components
// (TCs — logical locking, logical undo/redo logging, transaction
// atomicity and durability) and data components (DCs — access methods,
// cache, stable storage, atomic idempotent record operations), interacting
// at arm's length through a contract-governed message interface.
//
// # The client API
//
// Open a deployment under a declarative Placement, take its Client, and
// run transactions through it:
//
//	pl := unbundled.MustParsePlacement("kv: dc=hash(2) owner=hash(2)")
//	dep, err := unbundled.Open(unbundled.Options{TCs: 2, DCs: 2, Placement: pl})
//	...
//	defer dep.Close()
//	client := dep.Client()
//	err = client.RunTxnAt(ctx, "kv", "hello", unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
//		if err := x.Insert("kv", "hello", []byte("world")); err != nil {
//			return err
//		}
//		v, ok, err := x.Read("kv", "hello")
//		...
//		return nil
//	})
//
// RunTxn commits when fn returns nil and aborts when it returns an error;
// transient aborts — deadlock victims, lock timeouts, component-
// unavailable windows — are retried automatically with exponential
// backoff, bounded by TxnOptions.MaxAttempts. TxnOptions also selects
// versioned writes (§6.2.2 sharing), read-only enforcement, and a
// per-transaction lock timeout. Client.Begin starts an explicitly managed
// transaction (no retry; Commit/Abort are the caller's job).
//
// # Placement: data placement and §6.1 update ownership
//
// A Placement is the deployment map, declared as a text spec that
// round-trips (ParsePlacement, Placement.String) so the identical string
// drives an in-process deployment and a fleet of separate OS processes.
// Each table clause names two axes:
//
//	users: dc=hash(0-1) owner=range(<m:1,*:2); events: dc=2 owner=any
//
// The dc axis places data — which DC serves each key (fixed target,
// hash(n), mod(n) over the key's digit run, or named key ranges). The
// owner axis partitions update responsibility among the TCs per §6.1:
// each key has at most one owning TC, all TCs may read everywhere, and a
// write outside the issuing TC's partition aborts with the permanent
// ErrWrongOwner — enforced by the TC itself, before anything is locked or
// logged. Lookups on a table no clause covers fail typed
// (ErrUnknownTable) rather than silently landing on DC 0; a "*" clause
// opts into a catch-all. See the internal placement package docs for the
// full grammar.
//
// Transactions route by ownership: hint the write intent with
// TxnOptions.WriteSet (or the Client.RunTxnAt convenience) and the client
// sends the transaction to the owning TC; read-only transactions
// round-robin across TCs with a least-inflight tiebreak, as do writes to
// unowned keys. TxnOptions.TC still pins explicitly when needed.
//
// # Snapshot reads
//
// TxnOptions.ReadOnly transactions are timestamp snapshots by default:
// Begin picks a read timestamp and every Read/Scan is answered by the
// DCs from the committed versions at that timestamp — no locks are
// acquired and no operation flows through the TC, so readers never block
// writers, never deadlock, and any TC can serve any snapshot regardless
// of update ownership. Consistency comes from time, not locks: each TC
// continuously publishes a safe timestamp below which no new commits
// will be assigned, and a DC answers a read at T only once every TC's
// safe timestamp has passed T. A fresh snapshot additionally waits out
// the clock's uncertainty window at Begin, so it observes everything
// committed before Begin returned.
//
//	snap, err := client.Snapshot(ctx)   // one consistent multi-read view
//	defer snap.Close()
//	v, ok, err := snap.Read("kv", "hello")
//
// TxnOptions.Snapshot selects the policy: SnapshotFresh (default — see
// all commits up to Begin), SnapshotBounded (read up to
// TxnOptions.Staleness in the past, skipping both the uncertainty wait
// and the safe-timestamp wait for already-safe timestamps), and
// SnapshotLocked (the pre-snapshot behaviour: S locks through the TC,
// for reads that must serialize against in-flight writers). Snapshot
// reads see versioned writes (TxnOptions.Versioned) at full fidelity;
// unversioned tables degrade to latest-committed-state reads. DCs keep a
// superseded version only while an open snapshot can read it, so a
// SnapshotBounded view may read fresher than Staleness asks: never below
// the version-GC horizon its TC last sent. A snapshot read a DC can no
// longer answer whole (a peer's horizon passed it before the DC heard from
// the reader's TC) fails with ErrUnavailable, and a retry reads.
//
// # Contexts and cancellation
//
// Every wait in the stack honors the transaction's context: lock-manager
// queues, wire send/resend loops and unavailable-retry pauses, the pre-read
// of a barrier short of commit, and Commit's wait for its own outcome. A
// cancelled wait returns promptly with an error that errors.Is-matches both
// ErrCancelled and the context's own error. One thing is deliberately not cancellable: the
// delivery of an already-logged write. Its record is in the TC-log, so the
// §4.2 resend/redo contract must (and will) run to completion —
// cancellation abandons waits, never the protocol. A Commit cancelled past
// its log append returns ErrCommitAmbiguous at once and the transaction is
// finished behind it, locks held until it is.
//
// # Errors
//
// Failures are typed, end to end: the sentinels below (with ErrStaleEpoch
// and friends) survive crossing the TC:DC wire — operation outcomes travel
// as result codes and control-call failures are rehydrated from their
// message text — so errors.Is works identically over direct and networked
// deployments. IsTransient classifies what a caller (or Client.RunTxn
// itself) should retry.
//
// # Failures and recovery
//
// Components fail independently: Deployment.CrashTC / CrashDC /
// CrashAll inject the paper's §5.3 partial failures, and RecoverTC /
// RecoverDC / RecoverAll run the corresponding restart protocols.
//
// # Operation shipping
//
// The cost of unbundling is that every logical operation crosses a TC:DC
// message boundary (§4.2). Every logged operation — forward write,
// inverse, restart redo — crosses it under one delivery routine
// with one contract: resend until acknowledged, riding out a DC that is
// down, recovering or draining. A write never waits for its own round
// trip, and never makes one: the call takes the X lock (which freezes the
// key), answers what its kind must answer — Insert, Update and Delete check
// existence, so that every logged operation succeeds at the DC — records
// the value in the transaction cache, and joins its transaction's queue.
//
// The queue is logged and shipped at the transaction's next barrier:
// Commit, a scan or an unlocked read (for read-your-writes; point reads are
// answered by the transaction cache), or 64 queued writes. At Commit the
// queued writes are logged redo-only: their records and the commit record
// are appended as one log batch, stable whole or not at all, so a write
// record is never stable without its commit record and needs no undo image
// (deferred update); a crash that loses the batch loses the transaction, and
// the DCs roll back what they applied of it. Only a barrier short of commit
// logs undo information: it first fetches, in one batch of reads per DC,
// every undo image the cache could not supply (an unversioned Upsert of a
// key the transaction never read). Either way the records are appended at
// the barrier, under the locks, so the TC-log is still an OPSR order and a
// record is logged before its operation can reach the DC, and they ship as
// one PerformBatch message per DC. A transaction of four upserts is one
// round trip, not eight or five; Abort drops writes that never crossed a
// barrier without logging or sending anything, and inverts the ones that
// did. This is the fastest arrangement both when the DC is a direct call
// away and over a network. Two things follow: an error a DC read can raise
// (a cancelled context, a DC that is down) surfaces from the barrier rather
// than from the Upsert call, and another TC's ReadDirty/ScanDirty sees a
// writer's uncommitted versions from the writer's next barrier, not from the
// call that wrote them.
//
// There is one shipping path: the transaction's own goroutine ships at the
// barrier, and the barrier returns with the operations acknowledged. Strict
// two-phase locking keeps operations of concurrent transactions from
// conflicting, which is all the order §4.2 asks of the wire, so concurrent
// committers each send their own frame; locks are released only after every
// write is acknowledged and the commit record is stable.
//
// A versioned transaction (§6.2.2) makes no second round trip. The paper has
// the TC send, at commit, updates "to eliminate the before versions"; this
// implementation deliberately does not. The commit barrier is the lock point,
// so the TC draws the commit timestamp there and every versioned write that
// barrier ships carries it (one an earlier barrier shipped is written again).
// A DC keeps the before version, the newest entry of the record's history,
// below the stamped one and takes the stamped one for committed once the
// owner TC's safe timestamp passes it; the TC holds its safe timestamp below
// the commit timestamp until the commit record is forced. So a ReadCommitted
// reader sees a just-committed version from the owner's next safe timestamp
// broadcast on — within one TC tick — not the instant Commit returns;
// snapshot reads are unchanged. The next versioned write of the key drops
// the history the version-GC horizon no longer reaches and appends the
// committed head after the before version.
//
// The §4.2.1 watermarks — end of stable log, low-water mark, and the safe
// timestamp of the snapshot protocol — are one-way hints whose delay only
// postpones a page flush, so over a wire they pay for no frame of their own
// while there is traffic. A commit publishes the stable boundary its force
// and its acknowledgements moved; the wire client holds the two marks and
// they ride that TC's next request toward the DC (the next transaction's
// pre-read or write batch), applied at the DC before the request they
// rode. The 1 ms tick sends the one standalone frame there is, carrying all
// three marks — which is also what bounds the delay from an idle TC and
// repairs a block lost with its frame.
//
// # Networked deployment
//
// The components are separately deployable OS processes: cmd/unbundled-dc
// serves one DC on a TCP address, and a deployment built with
// Options.DCAddrs (as cmd/unbundled-tc does) commits transactions against
// it over real sockets. Both transports — the misbehaving simulated
// fabric and TCP — share one wire codec and one resending client stub, so
// exactly-once semantics are identical; a killed-and-restarted DC process
// refuses each TC's operations until that TC has resent its redo stream to
// the new incarnation, which the refusal prompts. With a data directory
// (DCConfig.Dir, TCConfig.Dir) the stable media survive process death,
// keeping checkpoint contracts honest across kill -9; a restarted
// unbundled-tc reopens its own log and runs the ordinary §5.3.2 restart
// against the DCs before serving.
//
// Placement is what makes the TC tier itself scale out (§6.1): several
// unbundled-tc processes — each one TC of the fleet, distinguished by
// -tc-id — share the same unbundled-dc processes under one spec string:
//
//	unbundled-dc -listen :7071 -tables kv -dir ./dc1 &
//	unbundled-dc -listen :7072 -tables kv -dir ./dc2 &
//	P='kv: dc=hash(2) owner=range(<w2:1,*:2)'
//	unbundled-tc -dcs :7071,:7072 -placement "$P" -tc-id 1 -tcs 2 -dir ./tc1 &
//	unbundled-tc -dcs :7071,:7072 -placement "$P" -tc-id 2 -tcs 2 -dir ./tc2 &
//
// Each TC fences the DCs with its own incarnation epochs, so killing and
// restarting one TC process never disturbs the other's traffic (§6.1.2).
//
// # Throughput runtime and the overload contract
//
// Over TCP a call holds its connection: the TC's wire client writes the
// request and reads its own reply on the calling goroutine, dialing another
// connection when none is idle, and the DC runs the request on the
// goroutine that read it, so a connection never carries a second call
// before the first is answered and nothing queues behind a request that
// waits. One in-flight cap decides admission: ListenConfig.MaxInFlight
// (default 2xGOMAXPROCS x 256) bounds the PerformBatch requests
// a DC runs at once, and above it the server refuses the request before
// decoding it; the refusal crosses the wire as the typed transient
// ErrOverloaded. That is the overload contract: a refused request was never
// executed, so retrying after a pause is always safe — and the TC's wire
// client does exactly that, invisibly, counting each refusal in its
// overloads counter (visible on /stats). Callers only ever see
// ErrOverloaded if they drive the wire layer directly; through
// Client.RunTxn, backpressure surfaces as latency, never as an error. This
// is the only server runtime: the TCP listener and the simulated fabric
// (Options.Network) are both transports around it, so tests that inject
// loss, duplication and reordering exercise the admission, the refusals
// and the replies a deployed DC runs. On the simulated fabric an attempt is
// one delivery each way, its reply going to that attempt alone, and the
// server runs each admitted request on a goroutine of its own.
// cmd/unbundled-dc exposes the cap as -max-inflight.
//
// What this runtime costs is measured by the repository benchmark
// (BENCHMARK.json, benchmark/): its tcp_write and tcp_mixed workloads drive
// it closed-loop over loopback TCP, and the traced pass reports round
// trips, bytes, RTT, resends and overloads per transaction. CI's
// bench-gate job runs that benchmark on the parent commit and the change
// and fails on any end-to-end metric worse beyond its bound.
//
// # Operations plane
//
// Both binaries expose an HTTP admin endpoint with -admin <addr>: /stats
// is a JSON snapshot of every component's counters (TC transaction and
// shipping counters, DC operation and recovery counters, per-connection
// wire counters — one schema over both transports), /healthz reports
// drain state (503 while draining, so health-checking load balancers
// eject the instance), and /drain + /undrain quiesce and restore the
// component. Draining is an admission gate, not a shutdown: in-flight
// transactions finish (a cancelled Commit's finisher included), new work is
// refused with the transient ErrDraining — which auto-routed clients ride
// out by retrying onto an undrained peer — and /healthz reports
// "quiesced" once nothing is left in flight. Drain state dies with the
// process: a restarted component serves. Fleet assembly is cross-checked
// at startup (Deployment.ValidatePlacement): every DC the placement
// routes a table to must actually serve that table, else startup fails
// with ErrPlacementMismatch. cmd/soak ties it together: a metrics-
// asserted chaos soak over a real fleet (frame loss, kill -9, drains).
//
// # Restart safety: incarnation epochs
//
// A restarted TC reuses the LSN space above its stable log end (§5.3.2),
// so a request the dead incarnation still had on the wire — a barrier's
// batch, a resend, a watermark broadcast, even a checkpoint
// call — must never take effect afterwards: its log record died with the
// unforced tail, and executing it would both apply a write no undo covers
// and record a reused LSN in the DC's abstract-LSN idempotence tables.
//
// Every TC therefore carries a monotonic incarnation epoch. It is minted
// at startup and again by every recovery (strictly larger each time), and
// forced into the TC-log before any operation is stamped with it; the
// checkpoint records carry it too, so log truncation never loses the
// incarnation history. Every operation and control call is stamped with
// the sender's epoch. BeginRestart installs the new epoch at each DC as a
// per-TC fence — durably, in the DC-log, before the cache reset runs — and
// from that moment the DC refuses anything stamped with an older epoch:
// operations nack permanently with ErrStaleEpoch (never retried), stale
// watermark broadcasts are dropped, and stale control calls fail typed.
// EndRestart atomically activates the staged epoch and discards whatever
// the dead incarnation still had queued. The fence survives DC crashes
// (epoch snapshots are replayed from the DC-log before any operation is
// served, and truncation re-logs them), making restart correctness
// independent of timing on a lossy, reordering, duplicating network.
//
// That is the DC's side. On the TC's own side the same boundary is one
// value: everything a TC crash destroys — lock table, transaction table, ack
// bookkeeping, timestamp registrations, the epoch, and the right to use the
// log — is one incarnation, which a transaction captures when it begins.
// CrashTC drops it and ends the TC-log's generation; RecoverTC builds the
// next one whole and publishes it last, unless a crash landed meanwhile. A
// transaction that straddles the two fails with a transient error (wrapping
// ErrCommitAmbiguous if its commit record had been appended: the stable log
// decides) and cannot touch its successor's locks, transaction ids or log;
// while the TC is down nothing is admitted. A commit whose writes fail to
// ship while its TC runs — a DC refuses them — ends the incarnation itself,
// as CrashTC would, so that restart decides its outcome.
package unbundled

import (
	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// Re-exported types: the full API surface of a deployment.
type (
	// Deployment is a running unbundled kernel (N TCs sharing M DCs).
	Deployment = core.Deployment
	// Client is the deployment-level transaction API: routing, typed
	// retry, and context plumbing. Obtain it with Deployment.Client.
	Client = core.Client
	// TxnOptions shapes one client transaction (versioning, read-only
	// snapshot reads, lock timeout, write-intent routing, TC pin, retry
	// policy). The zero value is a plain auto-routed read-write
	// transaction.
	TxnOptions = core.TxnOptions
	// Snapshot is a consistent multi-read view of the deployment at one
	// timestamp, from Client.Snapshot. Close releases it.
	Snapshot = core.Snapshot
	// SnapshotPolicy selects how a read-only transaction picks its read
	// timestamp (TxnOptions.Snapshot).
	SnapshotPolicy = core.SnapshotPolicy
	// Options configures Open.
	Options = core.Options
	// Placement is the declarative deployment map: data placement
	// (table/key to DC) and §6.1 update ownership (table/key to owning
	// TC), round-trippable through ParsePlacement and String.
	Placement = placement.Placement
	// TCConfig customizes one transactional component: ID, LockTimeout,
	// ForceDelay, Clock and Dir. Batch size, watermark period and
	// fetch-ahead width are constants of the TC.
	TCConfig = tc.Config
	// DCConfig customizes one data component.
	DCConfig = dc.Config
	// NetworkConfig interposes the misbehaving message fabric.
	NetworkConfig = wire.Config
	// DialConfig shapes the TCP connections of a networked deployment
	// (Options.DCAddrs pointing at cmd/unbundled-dc processes).
	DialConfig = wire.DialConfig
	// ListenConfig sizes the server runtime behind a networked DC: the
	// cap on requests in flight, past which requests are refused with
	// ErrOverloaded. cmd/unbundled-dc surfaces it as -max-inflight.
	ListenConfig = wire.ListenConfig
	// TC is a transactional component.
	TC = tc.TC
	// DC is a data component.
	DC = dc.DC
	// Txn is a user transaction executing at a TC.
	Txn = tc.Txn
)

// Snapshot policies for read-only transactions.
const (
	SnapshotFresh   = core.SnapshotFresh
	SnapshotBounded = core.SnapshotBounded
	SnapshotLocked  = core.SnapshotLocked
)

// The error taxonomy. Branch with errors.Is; IsTransient classifies the
// retryable subset. ErrCancelled-carrying errors also wrap the context's
// own error (context.Canceled / context.DeadlineExceeded).
var (
	// ErrNotFound: update/delete/read of a missing key.
	ErrNotFound = tc.ErrNotFound
	// ErrDuplicate: insert of an existing key.
	ErrDuplicate = tc.ErrDuplicate
	// ErrTxnDone: use of a committed or aborted transaction.
	ErrTxnDone = tc.ErrTxnDone
	// ErrDeadlock: the transaction was chosen as a deadlock victim and
	// aborted. Transient.
	ErrDeadlock = base.ErrDeadlock
	// ErrLockTimeout: a lock wait exceeded its bound; the transaction was
	// aborted. Transient.
	ErrLockTimeout = base.ErrLockTimeout
	// ErrUnavailable: a component is down, restarting, or shut down.
	// Transient.
	ErrUnavailable = base.ErrUnavailable
	// ErrStaleEpoch: the request came from a TC incarnation fenced by a
	// restart. Permanent.
	ErrStaleEpoch = base.ErrStaleEpoch
	// ErrCancelled: the caller's context was cancelled or its deadline
	// expired. Permanent under that context.
	ErrCancelled = base.ErrCancelled
	// ErrReadOnly: a write inside a TxnOptions.ReadOnly transaction.
	// Permanent.
	ErrReadOnly = base.ErrReadOnly
	// ErrCommitAmbiguous: Commit failed after the commit record was
	// appended — the outcome is decided by the log, so the transaction
	// must not be re-executed. Client.RunTxn never retries it, even when
	// the underlying failure is transient.
	ErrCommitAmbiguous = tc.ErrCommitAmbiguous
	// ErrWrongOwner: a write outside the issuing TC's §6.1 update-
	// ownership partition; the transaction was aborted. Permanent — route
	// the transaction to the owner (TxnOptions.WriteSet, Client.RunTxnAt)
	// instead of retrying.
	ErrWrongOwner = base.ErrWrongOwner
	// ErrUnknownTable: a placement lookup for a table no clause covers
	// (and no "*" catch-all exists). Permanent.
	ErrUnknownTable = base.ErrUnknownTable
	// ErrDraining: the component is draining — finishing in-flight work
	// while refusing new admission (the operations-plane drain verb).
	// Transient: retry routes onto an undrained peer, or succeeds once the
	// operator undrains.
	ErrDraining = base.ErrDraining
	// ErrPlacementMismatch: the fleet-assembly cross-check found a DC whose
	// served-table catalog contradicts the placement spec
	// (Deployment.ValidatePlacement). Permanent — fix the spec or the DC's
	// -tables before serving traffic.
	ErrPlacementMismatch = base.ErrPlacementMismatch
	// ErrOverloaded: a server's worker queues were full and the request was
	// refused before executing (admission control shedding load). Transient
	// — retrying after a pause is always safe; the wire client absorbs
	// these itself, so through Client.RunTxn overload surfaces as latency,
	// not as this error.
	ErrOverloaded = base.ErrOverloaded
)

// ParsePlacement reads a placement spec — ";"- or newline-separated
// "<table>: dc=<axis> owner=<axis>" clauses — and returns the Placement
// it describes. Placement.String prints the canonical form of the same
// spec, so ParsePlacement(s).String() is a fixpoint: the one string can
// be checked into a config, passed to cmd/unbundled-tc -placement, and
// handed to Options.Placement, and every holder resolves keys
// identically.
func ParsePlacement(spec string) (*Placement, error) { return placement.Parse(spec) }

// MustParsePlacement is ParsePlacement for compile-time-constant specs;
// it panics on error.
func MustParsePlacement(spec string) *Placement { return placement.MustParse(spec) }

// HashPlacement returns the uniform placement: every listed table hashed
// across all dcs data components, ownership hashed across all tcs
// transactional components.
func HashPlacement(tables []string, dcs, tcs int) *Placement {
	return placement.Hash(tables, dcs, tcs)
}

// IsTransient reports whether err is an abort worth retrying as a fresh
// transaction (deadlock victim, lock timeout, component unavailable).
// Client.RunTxn already retries exactly this class.
func IsTransient(err error) bool { return base.IsTransient(err) }

// Open builds and starts a deployment.
func Open(opts Options) (*Deployment, error) { return core.New(opts) }
