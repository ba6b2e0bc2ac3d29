// Package workload holds the one definition of each load the tools outside
// benchmark/ drive: the Figure-2 movie site with its seed and four
// transaction classes W1–W4 (§6.3; cmd/moviesim, examples/moviereviews), and
// the unique-key writer with its read-back oracle (cmd/soak,
// cmd/unbundled-tc).
package workload

import (
	"context"
	"fmt"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
)

// Movie schema table names (Figure 2, §6.3).
const (
	TableMovies    = "movies"
	TableReviews   = "reviews"
	TableUsers     = "users"
	TableMyReviews = "myreviews"
)

// MovieKey formats the Movies primary key (MId).
func MovieKey(m int) string { return fmt.Sprintf("m%06d", m) }

// ReviewKey formats the Reviews primary key (MId, UId) — reviews cluster
// with their movie for W1 (§6.3).
func ReviewKey(m, u int) string { return fmt.Sprintf("m%06d/u%06d", m, u) }

// UserKey formats the Users primary key (UId).
func UserKey(u int) string { return fmt.Sprintf("u%06d", u) }

// MyReviewKey formats the MyReviews primary key (UId, MId) — a redundant
// copy clustering a user's reviews for W4 (§6.3).
func MyReviewKey(u, m int) string { return fmt.Sprintf("u%06d/m%06d", u, m) }

// MoviePlacement is Figure 2's deployment shape: Movies and Reviews are
// partitioned by MId across MovieDCs data components, Users and MyReviews
// by UId across UserDCs further components; UpdateTCs updating TCs (IDs
// 1..UpdateTCs) split the users among them, and one more TC, owning
// nothing, serves the W1 reads.
type MoviePlacement struct {
	MovieDCs  int
	UserDCs   int
	Movies    int
	Users     int
	UpdateTCs int
}

// Placement expresses Figure 2's deployment map declaratively: Movies and
// Reviews cluster by MId across the movie DCs (0..MovieDCs-1), Users and
// MyReviews by UId across the user DCs that follow; update ownership
// follows §6.3 — "TC1: responsible for UId mod 2 = 0; TC2: UId mod 2 = 1"
// — so user-keyed rows are owned by UId mod UpdateTCs (the mod2 axis digs
// the UId out of the movie-clustered Reviews key) and the Movies bulk
// data is owned by TC 1 (the admin/loader TC every scenario here uses).
func (p MoviePlacement) Placement() *placement.Placement {
	userLo, userHi := p.MovieDCs, p.MovieDCs+p.UserDCs-1
	return placement.MustParse(fmt.Sprintf(
		"%s: dc=mod(%d) owner=1; "+
			"%s: dc=mod(%d) owner=mod2(%d); "+
			"%s: dc=mod(%d-%d) owner=mod(%d); "+
			"%s: dc=mod(%d-%d) owner=mod(%d)",
		TableMovies, p.MovieDCs,
		TableReviews, p.MovieDCs, p.UpdateTCs,
		TableUsers, userLo, userHi, p.UpdateTCs,
		TableMyReviews, userLo, userHi, p.UpdateTCs))
}

// ReaderTC is the ID of the TC serving W1: the one after the updating TCs.
func (p MoviePlacement) ReaderTC() int { return p.UpdateTCs + 1 }

// owner pins a transaction to the updating TC responsible for user u
// (TC IDs are 1-based: UId mod UpdateTCs = 0 is TC 1).
func (p MoviePlacement) owner(u int, versioned bool) core.TxnOptions {
	return core.TxnOptions{TC: u%p.UpdateTCs + 1, Versioned: versioned}
}

// The movie site's transactions. This is the one definition of the seed
// and of W1–W4 (§6.3); every load generator that drives the site calls
// these, so what "W1" means cannot drift between tools.

// Seed loads the Movies table in one transaction at the admin TC and one
// versioned profile per user at that user's owner TC.
func Seed(ctx context.Context, c *core.Client, p MoviePlacement) error {
	if err := c.RunTxn(ctx, core.TxnOptions{TC: 1}, func(x *tc.Txn) error {
		for m := 0; m < p.Movies; m++ {
			if err := x.Upsert(TableMovies, MovieKey(m), []byte(fmt.Sprintf("movie-%d", m))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("seed movies: %w", err)
	}
	for u := 0; u < p.Users; u++ {
		if err := W3(ctx, c, p, u, []byte(fmt.Sprintf("profile-%d", u))); err != nil {
			return fmt.Errorf("seed user %d: %w", u, err)
		}
	}
	return nil
}

// W1 obtains all reviews for movie m and returns how many there are: a
// snapshot scan of the Reviews clustering at the reader TC — one DC, no
// locks, and no operation through the TC, so the updating TCs never block
// it.
func W1(ctx context.Context, c *core.Client, p MoviePlacement, m int) (int, error) {
	return scanPrefix(ctx, c, core.TxnOptions{TC: p.ReaderTC(), ReadOnly: true},
		TableReviews, MovieKey(m)+"/")
}

// W2 adds user u's review of movie m: the Reviews row (a movie DC) and the
// redundant MyReviews row (a user DC) in ONE local transaction at u's
// owner TC — two DCs, no two-phase commit.
func W2(ctx context.Context, c *core.Client, p MoviePlacement, u, m int, review []byte) error {
	return c.RunTxn(ctx, p.owner(u, true), func(x *tc.Txn) error {
		if err := x.Upsert(TableReviews, ReviewKey(m, u), review); err != nil {
			return err
		}
		return x.Upsert(TableMyReviews, MyReviewKey(u, m), review)
	})
}

// W3 updates user u's profile: one DC, one TC.
func W3(ctx context.Context, c *core.Client, p MoviePlacement, u int, profile []byte) error {
	return c.RunTxn(ctx, p.owner(u, true), func(x *tc.Txn) error {
		return x.Upsert(TableUsers, UserKey(u), profile)
	})
}

// W4 obtains all reviews written by user u and returns how many there
// are: the owner TC scans its own MyReviews partition with full locking.
func W4(ctx context.Context, c *core.Client, p MoviePlacement, u int) (int, error) {
	return scanPrefix(ctx, c, p.owner(u, false), TableMyReviews, UserKey(u)+"/")
}

// scanPrefix counts the rows under prefix ('~' sorts after every key
// character the schema uses).
func scanPrefix(ctx context.Context, c *core.Client, opts core.TxnOptions, table, prefix string) (int, error) {
	var n int
	err := c.RunTxn(ctx, opts, func(x *tc.Txn) error {
		keys, _, err := x.Scan(table, prefix, prefix+"~", 0)
		n = len(keys)
		return err
	})
	return n, err
}
