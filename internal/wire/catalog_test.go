package wire

import (
	"context"
	"errors"
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
