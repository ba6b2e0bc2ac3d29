package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func TestCatalogUncatalogedServiceFailsTyped(t *testing.T) {
	n := NewNetwork(Config{})
	cl, srv := n.Connect(newEchoService()) // no Tables facet
	defer cl.Close()
	defer srv.Close()

	_, err := cl.Catalog(context.Background())
	if !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("Catalog on uncataloged service: err = %v, want ErrUnavailable", err)
	}
}

// TestDecodeCatalogIsStrict: a catalog reply decodes only from the bytes
// appendCatalog writes. A count its body cannot back is an error, not an
// allocation of that many names (a count of 1<<60 used to panic the TC in
// ValidatePlacement), and so are a non-minimal count, a name past the end
// and a byte after the last name.
func TestDecodeCatalogIsStrict(t *testing.T) {
	good := appendCatalog(nil, []string{"kv", "orders"})
	if got, err := decodeCatalog(good); err != nil || !reflect.DeepEqual(got, []string{"kv", "orders"}) {
		t.Fatalf("the well-formed catalog: %q, %v", got, err)
	}
	for name, body := range map[string][]byte{
		"count of 1<<60":        binary.AppendUvarint(nil, 1<<60),
		"count past the names":  append([]byte{3}, good[1:]...),
		"count non-minimal":     append([]byte{0x82, 0x00}, good[1:]...),
		"name past the end":     append([]byte{1, 9}, "kv"...),
		"byte after the names":  append(good[:len(good):len(good)], 0),
		"name length truncated": {1, 0x80},
	} {
		if got, err := decodeCatalog(body); err == nil {
			t.Errorf("%s: %x decoded to %q", name, body, got)
		}
	}
}
