package placement

import (
	"reflect"
	"testing"
)

// FuzzParse: Parse must not panic on any spec, and one it accepts must print
// a canonical form that parses back to an equal placement and prints the
// same.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"kv: dc=hash(2) owner=hash(2)",
		" kv :  dc=hash(2)   owner=hash(2) ;",
		"b: dc=1\na: dc=0",
		"*: dc=hash(4); kv: owner=3",
		"kv: dc=range(<g:0, <p:1, *:2) owner=range(<m:1,*:2)",
		"u: dc=mod(2-3) owner=mod2(2)",
		"u: dc=hash(0-1) owner=hash(1-2)",
		"kv: dc=0 owner=any",
		"kv: dc=range(*:0,<b:1)",
		"kv: dc=hash(5-3)",
		"k v: dc=0",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("Parse(%q) and Parse(%q) differ: %+v vs %+v", spec, canon, p, p2)
		}
		if again := p2.String(); again != canon {
			t.Fatalf("canonical form not a fixpoint: %q -> %q", canon, again)
		}
	})
}
