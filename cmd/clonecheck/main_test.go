package main

import (
	"strings"
	"testing"
)

const body = `
func prune(pg *Page, key string) {
	if pg.Leaf {
		i := sort.Search(len(pg.Recs), func(i int) bool { return pg.Recs[i].Key >= key })
		pg.Recs = pg.Recs[:i:i]
		return
	}
	panic("not a leaf")
}
`

func TestFindReportsCrossPackageClonesOnly(t *testing.T) {
	reworded := strings.Replace(body, `"not a leaf"`, `"x: branch page"`, 1)
	renamed := strings.ReplaceAll(body, "pg", "p")
	files := []source{
		tokenize("a/one.go", []byte("package a\n"+body)),
		tokenize("a/two.go", []byte("package a\n"+body)), // same package: left to review
		tokenize("b/one.go", []byte("package b\n// a comment\n"+reworded)),
		tokenize("c/one.go", []byte("package c\n"+renamed)),
	}
	got := find(files, 40)
	if len(got) != 2 || !strings.HasPrefix(got[0], "a/one.go:3-10 ~ b/one.go:4-11 (") ||
		!strings.HasPrefix(got[1], "a/two.go:3-10 ~ b/one.go:4-11 (") {
		t.Fatalf("clones = %q", got)
	}
	if got := find(files, 80); len(got) != 0 {
		t.Fatalf("runs shorter than min reported: %q", got)
	}
}
