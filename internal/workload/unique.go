package workload

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"github.com/cidr09/unbundled/internal/tc"
)

// Unique is the write-once workload and its oracle. Transaction seq writes
// Ops keys that no other transaction ever writes, each with a value
// derived from the key, so the expected state after any amount of crashing
// is exact: a key of a committed transaction must exist with precisely its
// value, and a key of a transaction whose commit ended ambiguous
// (tc.ErrCommitAmbiguous: the log decides, the caller cannot know) may be
// absent but must never hold anything else. The methods are safe for
// concurrent use.
type Unique struct {
	Table string
	// Prefix starts every key. Writers sharing a table use disjoint
	// prefixes, which is also what an owner=range(...) placement splits
	// update ownership on.
	Prefix string
	// Ops is the number of keys each transaction writes.
	Ops int
	// ValueBytes pads every value to at least this many bytes.
	ValueBytes int

	mu        sync.Mutex
	committed []uint64
	ambiguous []uint64
}

// Key is the j-th key of transaction seq.
func (u *Unique) Key(seq uint64, j int) string {
	return fmt.Sprintf("%s%06d-%d", u.Prefix, seq, j)
}

// Value is the only value Key(seq, j) is ever written with.
func (u *Unique) Value(seq uint64, j int) []byte {
	v := "v:" + u.Key(seq, j) + "/"
	if pad := u.ValueBytes - len(v); pad > 0 {
		v += strings.Repeat("x", pad)
	}
	return []byte(v)
}

// Write is the body of transaction seq.
func (u *Unique) Write(x *tc.Txn, seq uint64) error {
	for j := 0; j < u.Ops; j++ {
		if err := x.Upsert(u.Table, u.Key(seq, j), u.Value(seq, j)); err != nil {
			return err
		}
	}
	return nil
}

// Commit records that transaction seq reported commit: Verify requires
// its keys.
func (u *Unique) Commit(seq uint64) {
	u.mu.Lock()
	u.committed = append(u.committed, seq)
	u.mu.Unlock()
}

// Maybe records that transaction seq ended with tc.ErrCommitAmbiguous:
// Verify lets its keys be absent, not wrong.
func (u *Unique) Maybe(seq uint64) {
	u.mu.Lock()
	u.ambiguous = append(u.ambiguous, seq)
	u.mu.Unlock()
}

// Reader is what Verify reads through; *tc.Txn is one.
type Reader interface {
	Read(table, key string) ([]byte, bool, error)
}

// Verify reads every recorded key back through r and returns one line per
// key that is lost (committed, absent) or corrupt (present with any value
// but its own). Call it inside a read transaction and keep the result of
// the attempt that committed: a retried transaction calls it again.
func (u *Unique) Verify(r Reader) ([]string, error) {
	u.mu.Lock()
	sets := [2][]uint64{u.committed, u.ambiguous}
	u.mu.Unlock()
	var bad []string
	for i, seqs := range sets {
		mustExist := i == 0
		for _, seq := range seqs {
			for j := 0; j < u.Ops; j++ {
				key := u.Key(seq, j)
				got, ok, err := r.Read(u.Table, key)
				if err != nil {
					return nil, fmt.Errorf("verify read %s: %w", key, err)
				}
				if !ok && mustExist {
					bad = append(bad, "LOST committed write "+key)
				} else if want := u.Value(seq, j); ok && !bytes.Equal(got, want) {
					bad = append(bad, fmt.Sprintf("CORRUPT %s: got %q want %q", key, got, want))
				}
			}
		}
	}
	return bad, nil
}
