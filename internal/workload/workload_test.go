package workload

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/core"
)

func TestGenIsDeterministicPerSeedAndWorker(t *testing.T) {
	draw := func(seed int64, worker int) string {
		g := KV{Keys: 1000, ValueSize: 8, ReadFrac: 0.5, OpsPerTxn: 4, Seed: seed}.NewGen(worker)
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&sb, "%s:%v ", g.Key(), g.IsRead())
		}
		return sb.String()
	}
	if draw(42, 3) != draw(42, 3) {
		t.Fatal("the same (seed, worker) drew two different streams")
	}
	if draw(42, 3) == draw(42, 4) {
		t.Fatal("two workers of one seed drew the same stream")
	}
	if draw(42, 3) == draw(43, 3) {
		t.Fatal("two seeds drew the same stream for one worker")
	}
}

func TestKVKeyIndexInvertsKVKey(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 4242, 99999999} {
		if got := KVKeyIndex(KVKey(i)); got != i {
			t.Errorf("KVKeyIndex(KVKey(%d)) = %d", i, got)
		}
	}
}

// fakeStore is a Reader over a map, standing in for a transaction.
type fakeStore map[string][]byte

func (f fakeStore) Read(table, key string) ([]byte, bool, error) {
	v, ok := f[table+"/"+key]
	return v, ok, nil
}

func TestUniqueVerify(t *testing.T) {
	u := &Unique{Table: "kv", Prefix: "w7-", Ops: 2, ValueBytes: 40}
	if len(u.Value(1, 0)) != 40 || string(u.Value(1, 0)) == string(u.Value(1, 1)) {
		t.Fatalf("values must be padded and distinct per key: %q %q", u.Value(1, 0), u.Value(1, 1))
	}
	store := fakeStore{}
	put := func(seq uint64) {
		for j := 0; j < u.Ops; j++ {
			store["kv/"+u.Key(seq, j)] = u.Value(seq, j)
		}
	}
	put(1)
	u.Commit(1) // committed and intact
	put(2)
	u.Commit(2)
	delete(store, "kv/"+u.Key(2, 1)) // committed, one key lost
	u.Maybe(3)                       // ambiguous and absent: allowed
	put(4)
	u.Maybe(4)
	store["kv/"+u.Key(4, 0)] = []byte("someone else's bytes") // ambiguous, landed wrong

	bad, err := u.Verify(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 ||
		!strings.Contains(bad[0], "LOST") || !strings.Contains(bad[0], u.Key(2, 1)) ||
		!strings.Contains(bad[1], "CORRUPT") || !strings.Contains(bad[1], u.Key(4, 0)) {
		t.Fatalf("want key 2/1 lost and key 4/0 corrupt, got %q", bad)
	}

	boom := errors.New("dc away")
	if _, err := u.Verify(failingReader{boom}); !errors.Is(err, boom) {
		t.Fatalf("a read error must surface, got %v", err)
	}
}

type failingReader struct{ err error }

func (f failingReader) Read(string, string) ([]byte, bool, error) { return nil, false, f.err }

// TestMovieSiteW1IsALockFreeSnapshot pins the §6.3 reading of W1 that the
// four copies of the movie site had drifted apart on: the reader TC serves
// it as a snapshot scan — nothing is locked there and no operation is
// shipped through it — while still seeing every committed review.
func TestMovieSiteW1IsALockFreeSnapshot(t *testing.T) {
	p := MoviePlacement{MovieDCs: 2, UserDCs: 1, Movies: 6, Users: 8, UpdateTCs: 2}
	dep, err := core.New(core.Options{TCs: p.UpdateTCs + 1, DCs: p.MovieDCs + p.UserDCs, Placement: p.Placement()})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	c := dep.Client()
	if err := Seed(ctx, c, p); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < p.Users; u++ { // every user reviews movie 3; users 0..2 also movie 5
		if err := W2(ctx, c, p, u, 3, []byte("review")); err != nil {
			t.Fatal(err)
		}
		if u < 3 {
			if err := W2(ctx, c, p, u, 5, []byte("review")); err != nil {
				t.Fatal(err)
			}
		}
	}
	reader := dep.TCs[p.ReaderTC()-1]
	for m, want := range map[int]int{3: p.Users, 5: 3, 0: 0} {
		if n, err := W1(ctx, c, p, m); err != nil || n != want {
			t.Fatalf("W1(movie %d) = %d, %v; want %d reviews", m, n, err, want)
		}
	}
	if n, err := W4(ctx, c, p, 1); err != nil || n != 2 {
		t.Fatalf("W4(user 1) = %d, %v; want 2 reviews", n, err)
	}
	st := reader.Stats()
	if st.OpsSent != 0 || reader.Locks().Stats().Acquired != 0 {
		t.Fatalf("W1 went through the reader TC: %d ops sent, %d locks acquired",
			st.OpsSent, reader.Locks().Stats().Acquired)
	}
	if st.Snapshots != 3 {
		t.Fatalf("reader TC served %d snapshots, want one per W1 (3)", st.Snapshots)
	}
}
