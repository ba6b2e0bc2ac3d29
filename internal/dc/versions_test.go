package dc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
)

// modelVersion is one version of a key in the reference model: its commit
// timestamp and its value, or absent for a deletion or the null version.
type modelVersion struct {
	ts     base.TS
	val    []byte
	absent bool
}

// modelKey is what the reference model knows of one key.
//
// committed is every version ever committed, oldest first, and pending the
// head of a transaction that has not committed, stamped with its commit
// timestamp. The reads are answered from these two alone.
//
// The record's shape is modelled beside them, for Page.Size: exists, the head
// (head, hasBefore) and the versions the record still holds below it (kept),
// the last of which is the before version while hasBefore is set. kept
// follows the version GC's rule: a versioned write over a committed head
// drops the null version and everything no snapshot at or above the horizon
// reads, then keeps the head it replaces.
type modelKey struct {
	committed []modelVersion
	pending   *modelVersion

	exists    bool
	head      modelVersion
	hasBefore bool
	kept      []modelVersion
}

// dirty is what a dirty read sees: the head.
func (m *modelKey) dirty() ([]byte, bool) {
	if !m.exists || m.head.absent {
		return nil, false
	}
	return m.head.val, true
}

// at is what a snapshot at t reads: the newest committed version at or below
// t, or the pending head when it is stamped at or below t.
func (m *modelKey) at(t base.TS) ([]byte, bool) {
	if p := m.pending; p != nil && p.ts <= t {
		return p.val, !p.absent
	}
	for i := len(m.committed) - 1; i >= 0; i-- {
		if v := m.committed[i]; v.ts <= t {
			return v.val, !v.absent
		}
	}
	return nil, false
}

// readCommitted is what a committed read sees under the owner's safe
// timestamp: the head, unless a versioned write left it and its timestamp is
// above safe; then the version it replaced.
func (m *modelKey) readCommitted(safe base.TS) ([]byte, bool) {
	if !m.exists {
		return nil, false
	}
	if !m.hasBefore || m.head.ts <= safe {
		return m.dirty()
	}
	// The version the head replaced: the newest committed one under a
	// pending head, the one before it under a committed head.
	n := len(m.committed)
	if m.pending == nil {
		n--
	}
	if n <= 0 {
		return nil, false
	}
	v := m.committed[n-1]
	return v.val, !v.absent
}

// size is the record's Page.Size share: the key, the head's and the before
// version's values, and the timestamp group (20 bytes, 12 more per older
// version and its value) once any of them carries a timestamp.
func (m *modelKey) size(key string) int {
	if !m.exists {
		return 0
	}
	older := m.kept
	var before modelVersion
	if m.hasBefore {
		before, older = m.kept[len(m.kept)-1], m.kept[:len(m.kept)-1]
	}
	n := 8 + len(key) + len(m.head.val) + len(before.val)
	if m.head.ts != 0 || before.ts != 0 || len(older) > 0 {
		n += 20
		for _, v := range older {
			n += 12 + len(v.val)
		}
	}
	return n
}

// collect is the model of a write-back's collection at horizon: a head
// stamped at or below it keeps no version below it, and a full image (image)
// drops such a head that is a tombstone, record and all.
func (m *modelKey) collect(horizon base.TS, image bool) {
	if !m.exists || m.head.ts == 0 || m.head.ts > horizon {
		return
	}
	m.kept, m.hasBefore = nil, false
	if image && m.head.absent {
		m.exists, m.head = false, modelVersion{}
	}
}

// stage is the model of a versioned write stamped ts landing on the record.
func (m *modelKey) stage(ts, horizon base.TS, val []byte, del bool) {
	next := modelVersion{ts: ts, val: val, absent: del}
	if del {
		next.val = nil
	}
	switch {
	case !m.exists:
		m.exists, m.hasBefore, m.kept = true, true, []modelVersion{{absent: true}}
	case m.hasBefore && m.head.ts == ts:
		// The transaction's own head, written again.
	default:
		kept := m.kept
		if n := len(kept); m.hasBefore && n > 0 && kept[n-1].ts == 0 && kept[n-1].absent {
			kept = kept[:n-1] // the null version reads as no version
		}
		if horizon != 0 {
			if m.head.ts <= horizon {
				kept = nil
			} else {
				idx := -1
				for i := len(kept) - 1; i >= 0; i-- {
					if kept[i].ts <= horizon {
						idx = i
						break
					}
				}
				if idx >= 0 && kept[idx].absent {
					idx++
				}
				if idx > 0 {
					kept = kept[idx:]
				}
			}
		}
		m.kept = append(kept[:len(kept):len(kept)], m.head)
		m.hasBefore = true
	}
	m.head = next
	p := next
	m.pending = &p
}

// TestVersionsFollowAModel drives one leaf through seeded schedules of
// applyWrite — versioned Insert, Update, Upsert and Delete stamped with their
// commit timestamps, a pending transaction's written again, unversioned
// writes, and a GC horizon trailing the commit timestamps — and checks every
// read against a reference model of each key's committed versions and pending
// head: VersionAt at every timestamp from the horizon on, a committed read
// with the owner's safe timestamp below and at the head's, and a dirty read.
// The page, a Clone of it and its Encode/Decode round trip must all answer
// alike, and Page.Size must be the model's: the before version counts its
// value and no history entry. At random steps the page is written back as a
// buffer pool writes it — its delta frame appended to its chain, each record
// collected at the horizon as it is encoded (AppendDelta), or every record
// collected (CollectImage) and a full image encoded — and the walk goes on
// over the page or its decoded chain, which must be alike.
func TestVersionsFollowAModel(t *testing.T) {
	keys := []string{"a", "b", "c", ""}
	for seed := int64(1); seed <= 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		p := page.NewLeaf(1)
		model := map[string]*modelKey{}
		for _, k := range keys {
			model[k] = &modelKey{}
		}
		var clock, horizon base.TS
		touched := map[string]bool{} // the keys written since p's chain
		for step := 0; step < 60; step++ {
			key := keys[rnd.Intn(len(keys))]
			m := model[key]
			val := bytes.Repeat([]byte{byte('A' + step%26)}, rnd.Intn(4))
			if len(val) == 0 {
				val = nil
			}
			op := &base.Op{TC: base.TCID(1 + rnd.Intn(2)), Key: key, Value: val}
			kinds := [...]base.OpKind{base.OpInsert, base.OpUpdate, base.OpUpsert, base.OpDelete}
			op.Kind = kinds[rnd.Intn(len(kinds))]
			// refused is whether applyWrite must refuse op: an insert of a
			// key it sees, an update or delete of one it does not.
			refused := func() bool {
				_, visible := m.dirty()
				switch op.Kind {
				case base.OpInsert:
					return visible
				case base.OpUpdate, base.OpDelete:
					return !visible
				}
				return false
			}
			what := ""
			switch action := rnd.Intn(8); {
			case action < 4:
				// A versioned write, stamped with its transaction's commit
				// timestamp: a new transaction's, or, while the key's head is
				// pending, its own transaction's, which alone writes the key.
				op.Versioned = true
				if m.pending != nil {
					op.TS = m.pending.ts
				} else {
					clock++
					op.TS = clock
				}
				if op.Kind == base.OpDelete {
					op.Value = nil // a delete carries no value
				}
				what = fmt.Sprintf("versioned %v at %d", op.Kind, op.TS)
				refused := refused()
				code := applyWrite(p, p.Get(key), op, horizon)
				if refused {
					if code == base.CodeOK {
						t.Fatalf("seed %d step %d: %s %q applied, want refused", seed, step, what, key)
					}
					continue
				}
				if code != base.CodeOK {
					t.Fatalf("seed %d step %d: %s %q: %v", seed, step, what, key, code)
				}
				touched[key] = true
				m.stage(op.TS, horizon, op.Value, op.Kind == base.OpDelete)
				if rnd.Intn(3) > 0 {
					// Committed: its safe timestamp passes op.TS later.
					m.committed = append(m.committed, *m.pending)
					m.pending = nil
				}
			case action < 6:
				if m.pending != nil {
					continue // the writer holds the key's X lock
				}
				what = fmt.Sprintf("unversioned %v", op.Kind)
				refused := refused()
				code := applyWrite(p, p.Get(key), op, horizon)
				if refused {
					if code == base.CodeOK {
						t.Fatalf("seed %d step %d: %s %q applied, want refused", seed, step, what, key)
					}
					continue
				}
				if code != base.CodeOK {
					t.Fatalf("seed %d step %d: %s %q: %v", seed, step, what, key, code)
				}
				touched[key] = true
				*m = modelKey{}
				if op.Kind != base.OpDelete {
					m.exists, m.head = true, modelVersion{val: val}
					m.committed = []modelVersion{{val: val}}
				}
			default:
				// The horizon trails: at most the clock, and below every
				// stamped head still pending.
				limit := clock
				for _, mk := range model {
					if mk.pending != nil && mk.pending.ts <= limit {
						limit = mk.pending.ts - 1
					}
				}
				if limit > horizon {
					horizon += base.TS(rnd.Intn(int(limit-horizon) + 1))
				}
				what = fmt.Sprintf("horizon to %d", horizon)
			}

			if rnd.Intn(4) == 0 {
				chain, baseLen := p.Chain()
				if chain != nil && rnd.Intn(2) == 0 {
					what += ", a delta frame"
					for k := range touched {
						model[k].collect(horizon, false)
					}
					chain, _, _ = p.AppendDelta(chain[:len(chain):len(chain)], horizon, math.MaxInt)
				} else {
					what += ", a full image"
					p.CollectImage(horizon)
					for _, k := range keys {
						model[k].collect(horizon, true)
					}
					chain = p.Encode()
					baseLen = len(chain)
				}
				p.SetChain(chain, baseLen)
				clear(touched)
				stable, err := page.Decode(chain)
				if err != nil || !stable.Equal(p) {
					t.Fatalf("seed %d step %d (%s %q): the chain decodes to another page (%v)", seed, step, what, key, err)
				}
				if rnd.Intn(2) == 0 {
					p = stable
				}
			}

			decoded, err := page.Decode(p.Encode())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			views := map[string]*page.Page{"page": p, "clone": p.Clone(), "decoded": decoded}
			wantSize := 32
			for _, k := range keys {
				wantSize += model[k].size(k)
			}
			for name, v := range views {
				if got := v.Size(); got != wantSize {
					t.Fatalf("seed %d step %d (%s %q): %s Size %d, model %d", seed, step, what, key, name, got, wantSize)
				}
				for _, k := range keys {
					checkModelReads(t, fmt.Sprintf("seed %d step %d (%s %q): %s key %q", seed, step, what, key, name, k),
						v.Get(k), model[k], horizon, clock)
				}
			}
			switch rnd.Intn(8) {
			case 0:
				p = decoded // go on over an image: every field aliases it
				clear(touched)
			case 1:
				p = views["clone"]
			}
		}
	}
}

// checkModelReads compares every read of r (nil: no record) with the model.
func checkModelReads(t *testing.T, where string, r *page.Record, m *modelKey, horizon, clock base.TS) {
	t.Helper()
	if (r != nil) != m.exists {
		t.Fatalf("%s: record present %v, model %v", where, r != nil, m.exists)
	}
	same := func(read string, gotV []byte, gotOK bool, wantV []byte, wantOK bool) {
		t.Helper()
		if gotOK != wantOK || gotOK && !bytes.Equal(gotV, wantV) {
			t.Fatalf("%s: %s = %q %v, model %q %v", where, read, gotV, gotOK, wantV, wantOK)
		}
	}
	if r == nil {
		return
	}
	v, ok := r.ReadVersion(base.ReadDirty, 0)
	wv, wok := m.dirty()
	same("dirty read", v, ok, wv, wok)
	if m.head.ts != 0 {
		for _, safe := range []base.TS{m.head.ts - 1, m.head.ts} {
			v, ok := r.ReadVersion(base.ReadCommitted, safe)
			wv, wok := m.readCommitted(safe)
			same(fmt.Sprintf("committed read at safe %d", safe), v, ok, wv, wok)
		}
	}
	v, ok = r.ReadVersion(base.ReadCommitted, 0)
	wv, wok = m.readCommitted(0)
	same("committed read at safe 0", v, ok, wv, wok)
	// A snapshot is served once every safe timestamp covers it, which a
	// pending stamped head's never does.
	limit := clock + 1
	if m.pending != nil {
		limit = m.pending.ts - 1
	}
	for at := horizon; at <= limit; at++ {
		v, ok := r.VersionAt(at)
		wv, wok := m.at(at)
		same(fmt.Sprintf("snapshot at %d", at), v, ok, wv, wok)
	}
}
