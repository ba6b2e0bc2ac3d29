package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/cidr09/unbundled/internal/tc"
)

const (
	table      = "kv"
	valueBytes = 64
	opsPerTxn  = 4
	scanLimit  = 16
	// ckptEvery is the driver's checkpoint policy: each client checkpoints
	// its TC after this many of its own transactions. Count-based, so the
	// number of checkpoints per transaction repeats from run to run.
	ckptEvery = 2000
	// probeReads is the read-only transactions per client that follow every
	// slice of a write-only workload's window.
	probeReads = 500
	// tailTxns is the redo tail: write transactions committed after the
	// last checkpoint, so the crash at the end has real redo work.
	tailTxns = 5000
)

// spec is one workload. The "why" of each lives in BENCHMARK.json and
// README.md; the numbers here are the ones those texts quote.
type spec struct {
	name    string
	tcp     bool // 2 TCs x 1 DC over loopback TCP, else 1 TC x 1 DC direct
	clients int  // closed-loop clients, one pinned per TC
	keys    int  // keys per client partition
	mixed   bool // 80% snapshot read-only txns beside versioned writes
	// sliceTxns is the transactions per client in one slice of the measured
	// window, a multiple of ckptEvery so every slice holds the same number
	// of checkpoints; sized to 0.15-0.6 s, long against the yardstick
	// measurement that follows it and short against the machine's moods.
	sliceTxns int
	// snapSlices is the slice (of a 20 s window) at whose end write_amp and
	// peak_rss_mb are taken: a fixed transaction count, reached before the
	// window ends even at half the speed this was sized at.
	snapSlices int
}

var specs = []spec{
	{name: "direct_fit", clients: 1, keys: 10_000, sliceTxns: 3 * ckptEvery, snapSlices: 40},
	{name: "direct_big", clients: 1, keys: 200_000, sliceTxns: 2 * ckptEvery, snapSlices: 20},
	{name: "tcp_write", tcp: true, clients: 2, keys: 5_000, sliceTxns: ckptEvery, snapSlices: 15},
	{name: "tcp_mixed", tcp: true, clients: 2, keys: 5_000, mixed: true, sliceTxns: ckptEvery, snapSlices: 20},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks the key space for the smoke test; scale 1 is the benchmark.
func (s spec) scaled(scale float64) spec {
	s.keys = scaleCount(s.keys, scale)
	return s
}

func scaleCount(n int, scale float64) int {
	if m := int(float64(n) * scale); m >= 64 {
		return m
	}
	return 64
}

func keyOf(client, idx int) string { return fmt.Sprintf("c%d/k%07d", client, idx) }

// fillValue stamps (client, key index, seq) into a 64-byte value; the rest
// is a hash of that header, so a value that was torn, mixed up between
// keys or invented fails checkValue.
func fillValue(buf []byte, client, idx int, seq uint64) {
	buf[0] = byte(client)
	binary.LittleEndian.PutUint32(buf[1:], uint32(idx))
	binary.LittleEndian.PutUint64(buf[5:], seq)
	x := seq*0x9E3779B97F4A7C15 ^ uint64(idx)<<8 ^ uint64(client) | 1
	for i := 13; i < valueBytes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// newValue is a fresh value for (client, idx, seq). Every write gets its
// own slice: a direct-call DC keeps the slice it is handed, exactly as it
// would keep a caller's buffer.
func newValue(client, idx int, seq uint64) []byte {
	v := make([]byte, valueBytes)
	fillValue(v, client, idx, seq)
	return v
}

// checkValue reports whether val is a well-formed value of (client, idx)
// and returns the seq it carries.
func checkValue(val []byte, client, idx int) (seq uint64, ok bool) {
	if len(val) != valueBytes {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(val[5:])
	var want [valueBytes]byte
	fillValue(want[:], client, idx, seq)
	return seq, bytes.Equal(val, want[:])
}

// parseKey inverts keyOf for keys a Scan returns (clients are one digit).
func parseKey(key string) (client, idx int, ok bool) {
	if len(key) < 5 || key[0] != 'c' || key[2] != '/' || key[3] != 'k' {
		return 0, 0, false
	}
	idx, err := strconv.Atoi(key[4:])
	return int(key[1] - '0'), idx, err == nil
}

// partition is one client's share of the key space plus the driver's
// oracle for it: the seq of the last committed write to each key. Only the
// owning client writes a partition, so the expected final value of every
// key is exact.
type partition struct {
	client int
	keys   []string
	last   []uint64 // by key index; 0 = the preload
	seq    uint64   // last seq handed out
}

func newPartition(client, n int) *partition {
	p := &partition{client: client, keys: make([]string, n), last: make([]uint64, n)}
	for i := range p.keys {
		p.keys[i] = keyOf(client, i)
	}
	return p
}

// generator turns a seed into one client's transaction stream. The system
// under test sees only the generated transactions, never the seed.
type generator struct {
	sp    spec
	rng   *rand.Rand
	own   *partition
	parts []*partition
	reads int // read-only transactions generated, for the every-8th scan
	// Scratch for the transaction being built; the closures below read it.
	idx    [opsPerTxn]int
	vals   [opsPerTxn][]byte
	rpart  [opsPerTxn]*partition
	drop   bool // seeded fault: skip the first upsert of the next write txn
	badVal int  // missing or malformed values seen by read transactions
	badMsg string
}

func (g *generator) bad(msg string) {
	if g.badVal++; g.badMsg == "" {
		g.badMsg = msg
	}
}

func newGenerator(sp spec, seed int64, client int, parts []*partition) *generator {
	return &generator{sp: sp, rng: rand.New(rand.NewSource(seed*7919 + int64(client))),
		own: parts[client], parts: parts}
}

// writeOpts and readOpts are the transaction options of the two flavours,
// in the TC's terms; the untraced pass converts them to core.TxnOptions.
func (g *generator) writeOpts() tc.TxnOptions { return tc.TxnOptions{Versioned: g.sp.mixed} }

func readOpts() tc.TxnOptions {
	return tc.TxnOptions{ReadOnly: true, Snapshot: tc.SnapshotBounded, Staleness: staleness}
}

// nextWrite draws 4 distinct uniform keys of the client's own partition
// and stamps fresh values. The oracle is updated by commit, after the
// transaction succeeded.
func (g *generator) nextWrite() {
	n := len(g.own.keys)
	for i := 0; i < opsPerTxn; i++ {
	again:
		k := g.rng.Intn(n)
		for j := 0; j < i; j++ {
			if g.idx[j] == k {
				goto again
			}
		}
		g.idx[i] = k
		g.own.seq++
		g.vals[i] = newValue(g.own.client, k, g.own.seq)
	}
}

func (g *generator) writeFn(x txnOps) error {
	for i := 0; i < opsPerTxn; i++ {
		if g.drop && i == 0 {
			continue
		}
		if err := x.Upsert(table, g.own.keys[g.idx[i]], g.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// committed records a successful write transaction in the oracle.
func (g *generator) committed() {
	for i := 0; i < opsPerTxn; i++ {
		g.own.last[g.idx[i]] = g.own.seq - uint64(opsPerTxn-1-i)
	}
	g.drop = false
}

// userBytes is the key+value payload of one committed write transaction,
// the denominator of write_amp.
func (g *generator) userBytes() int {
	n := 0
	for i := 0; i < opsPerTxn; i++ {
		n += len(g.own.keys[g.idx[i]]) + valueBytes
	}
	return n
}

// nextRead draws 4 point reads over all partitions; every 8th read-only
// transaction is a 16-key scan instead (reported by the return value).
func (g *generator) nextRead() (scan bool) {
	g.reads++
	for i := 0; i < opsPerTxn; i++ {
		g.rpart[i] = g.parts[g.rng.Intn(len(g.parts))]
		g.idx[i] = g.rng.Intn(len(g.rpart[i].keys))
	}
	return g.reads%8 == 0
}

func (g *generator) readFn(x txnOps) error {
	for i := 0; i < opsPerTxn; i++ {
		p := g.rpart[i]
		val, found, err := x.Read(table, p.keys[g.idx[i]])
		if err != nil {
			return err
		}
		if _, ok := checkValue(val, p.client, g.idx[i]); !found || !ok {
			g.bad(fmt.Sprintf("read %s: found=%v value %x", p.keys[g.idx[i]], found, val))
		}
	}
	return nil
}

func (g *generator) scanFn(x txnOps) error {
	p := g.rpart[0]
	keys, vals, err := x.Scan(table, p.keys[g.idx[0]], "", scanLimit)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		g.bad("scan from " + p.keys[g.idx[0]] + ": empty")
	}
	for i, k := range keys {
		c, idx, ok := parseKey(k)
		if _, good := checkValue(vals[i], c, idx); !ok || !good {
			g.bad(fmt.Sprintf("scan from %s: key %q value %x", p.keys[g.idx[0]], k, vals[i]))
		}
	}
	return nil
}
