package btree_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/monolith"
	"github.com/cidr09/unbundled/internal/wal"
)

// engine is what the two users of the shared physical half have in common
// for this test: create a table, write and read a key, and show their pool
// and the log their system transactions went to.
type engine struct {
	create func(table string) error
	put    func(table, key string) error
	has    func(table, key string) (bool, error)
	pool   func() *buffer.Pool
	log    func() *wal.Log
}

func dcEngine(t *testing.T) engine {
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lsn base.LSN
	perform := func(kind base.OpKind, table, key string) *base.Result {
		mu.Lock()
		lsn++
		op := &base.Op{TC: 1, LSN: lsn, Kind: kind, Table: table, Key: key, Value: []byte("v")}
		mu.Unlock()
		return d.Perform(context.Background(), op)
	}
	return engine{
		create: d.CreateTable,
		put: func(table, key string) error {
			if res := perform(base.OpUpsert, table, key); res.Code != base.CodeOK {
				return fmt.Errorf("upsert %s: %v", key, res.Code)
			}
			return nil
		},
		has: func(table, key string) (bool, error) {
			res := perform(base.OpRead, table, key)
			if res.Code != base.CodeOK && res.Code != base.CodeNotFound {
				return false, fmt.Errorf("read %s: %v", key, res.Code)
			}
			return res.Found, nil
		},
		pool: d.Pool,
		log:  d.DCLog,
	}
}

func monolithEngine(t *testing.T) engine {
	e, err := monolith.New(monolith.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return engine{
		create: e.CreateTable,
		put: func(table, key string) error {
			return e.RunTxn(func(x *monolith.Txn) error { return x.Upsert(table, key, []byte("v")) })
		},
		has: func(table, key string) (found bool, err error) {
			err = e.RunTxn(func(x *monolith.Txn) error {
				_, found, err = x.Read(table, key)
				return err
			})
			return found, err
		},
		pool: e.Pool,
		log:  e.Log,
	}
}

// TestConcurrentCreateTableCreatesOnce: N goroutines creating the same
// table, each writing as soon as its own CreateTable returned, must leave
// one CreateTree record, one root in the catalog, and every acknowledged
// write readable — check and create are one critical section, in the one
// place both engines get them from. (Check-then-act logged two records and
// orphaned the first root with whatever had been written under it.)
func TestConcurrentCreateTableCreatesOnce(t *testing.T) {
	for name, build := range map[string]func(*testing.T) engine{"dc": dcEngine, "monolith": monolithEngine} {
		t.Run(name, func(t *testing.T) {
			const creators, rounds = 8, 100
			e := build(t)
			for round := 0; round < rounds; round++ {
				table := fmt.Sprintf("t%03d", round)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := 0; g < creators; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-start
						if err := e.create(table); err != nil {
							t.Errorf("%s creator %d: %v", table, g, err)
							return
						}
						if err := e.put(table, fmt.Sprintf("k%d", g)); err != nil {
							t.Errorf("%s creator %d: %v", table, g, err)
						}
					}(g)
				}
				close(start)
				wg.Wait()
				for g := 0; g < creators; g++ {
					if found, err := e.has(table, fmt.Sprintf("k%d", g)); err != nil || !found {
						t.Fatalf("%s: acknowledged write k%d: found=%v err=%v", table, g, found, err)
					}
				}
			}
			if t.Failed() {
				return
			}
			created := map[string]int{}
			for _, rec := range e.log().Scan(0) {
				if rec.Kind == dclog.KindCreateTree {
					ct, err := dclog.DecodeCreateTree(rec.Payload)
					if err != nil {
						t.Fatal(err)
					}
					created[ct.Table]++
				}
			}
			cat, err := e.pool().Fetch(btree.CatalogPageID)
			if err != nil || cat == nil {
				t.Fatalf("catalog page: %v %v", cat, err)
			}
			defer e.pool().Unpin(btree.CatalogPageID)
			if len(cat.Recs) != rounds || len(created) != rounds {
				t.Fatalf("%d tables created: catalog holds %d roots, log names %d tables",
					rounds, len(cat.Recs), len(created))
			}
			for table, n := range created {
				if n != 1 {
					t.Errorf("%s: %d CreateTree records", table, n)
				}
			}
		})
	}
}
