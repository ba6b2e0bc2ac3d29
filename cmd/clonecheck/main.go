// Command clonecheck fails when two different packages share a run of
// minTokens or more source tokens. It exists for one rule CI enforces:
// code that two packages need is shared by import, not by copy. Literals
// are compared by kind, not by spelling, so a copy survives rewording its
// error strings; identifiers are compared as written, or every list of
// one-line accessors would match every other. Comments and _test.go files
// are ignored; repetition inside one package is left to review.
//
//	clonecheck internal cmd
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"hash/maphash"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// source is one file as the sequence of its tokens and their lines.
type source struct {
	path  string
	toks  []string
	lines []int
}

type position struct{ file, at int }

// minTokens is the shortest run reported. It sits above the longest
// look-alike the tree accepts (51 tokens: the oracle check that cmd/soak and
// cmd/unbundled-tc each run, found by a run at a threshold of 50) and below
// the copy this check was written to keep out (133: the key cut of a split's
// left page, now page.CutAt, once in both dc/recovery.go and
// monolith/recovery.go as pruneForSplit).
const minTokens = 100

func main() {
	files, err := load(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "clonecheck:", err)
		os.Exit(2)
	}
	clones := find(files, minTokens)
	for _, c := range clones {
		fmt.Println(c)
	}
	if len(clones) > 0 {
		fmt.Printf("clonecheck: %d cross-package clone(s) of %d tokens or more\n", len(clones), minTokens)
		os.Exit(1)
	}
}

// load tokenizes every non-test Go file under roots.
func load(roots []string) ([]source, error) {
	var files []source
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files = append(files, tokenize(path, text))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func tokenize(path string, text []byte) source {
	src := source{path: path}
	fset := token.NewFileSet()
	file := fset.AddFile(path, fset.Base(), len(text))
	var s scanner.Scanner
	s.Init(file, text, nil, 0) // mode 0 skips comments
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return src
		}
		if tok == token.SEMICOLON {
			continue // mostly inserted by the scanner; layout, not code
		}
		word := tok.String()
		switch {
		case tok == token.IDENT:
			word = lit
		case tok.IsLiteral():
			word = "_"
		}
		src.toks = append(src.toks, word)
		src.lines = append(src.lines, file.Line(pos))
	}
}

// find reports every maximal run of at least min equal tokens between two
// files in different directories, in file order.
func find(files []source, min int) []string {
	seed := maphash.MakeSeed()
	index := map[uint64][]position{}
	window := func(f source, at int) uint64 {
		var h maphash.Hash
		h.SetSeed(seed)
		for _, w := range f.toks[at : at+min] {
			h.WriteString(w)
			h.WriteByte(0)
		}
		return h.Sum64()
	}
	hashes := make([][]uint64, len(files))
	for fi, f := range files {
		for at := 0; at+min <= len(f.toks); at++ {
			h := window(f, at)
			hashes[fi] = append(hashes[fi], h)
			index[h] = append(index[h], position{fi, at})
		}
	}
	var out []string
	for fi, f := range files {
		for at, h := range hashes[fi] {
			for _, p := range index[h] {
				g := files[p.file]
				if p.file <= fi || filepath.Dir(g.path) == filepath.Dir(f.path) {
					continue
				}
				if at > 0 && p.at > 0 && f.toks[at-1] == g.toks[p.at-1] {
					continue // the tail of a run already reported
				}
				n := 0
				for at+n < len(f.toks) && p.at+n < len(g.toks) && f.toks[at+n] == g.toks[p.at+n] {
					n++
				}
				if n >= min {
					out = append(out, fmt.Sprintf("%s:%d-%d ~ %s:%d-%d (%d tokens)",
						f.path, f.lines[at], f.lines[at+n-1], g.path, g.lines[p.at], g.lines[p.at+n-1], n))
				}
			}
		}
	}
	return out
}
