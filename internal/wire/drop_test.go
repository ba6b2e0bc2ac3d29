package wire

import (
	"context"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// TestTCPDropProbLossIsRiddenOut proves the soak harness's chaos knob:
// with heavy injected outbound loss, every operation still executes
// exactly once (the resend loop recovers each dropped frame), and the
// link-level counters record both the injected drops and the resends that
// healed them.
func TestTCPDropProbLossIsRiddenOut(t *testing.T) {
	svc := newEchoService()
	l, err := Listen("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cl := Dial(l.Addr(), DialConfig{
		DropProb:    0.4,
		DropSeed:    42,
		ResendAfter: 5 * time.Millisecond,
	})
	defer cl.Close()

	for i := 1; i <= 50; i++ {
		op := &base.Op{Kind: base.OpUpsert, LSN: base.LSN(i), Table: "kv", Key: "k"}
		if res := cl.Perform(context.Background(), op); res.Code != base.CodeOK {
			t.Fatalf("Perform %d: code %v", i, res.Code)
		}
	}
	svc.mu.Lock()
	applied := len(svc.applied)
	svc.mu.Unlock()
	if applied != 50 {
		t.Fatalf("applied %d distinct LSNs, want 50", applied)
	}
	if got := cl.link.(*tcpLink).dropsInjected.Load(); got == 0 {
		t.Fatal("DropProb 0.4 over 50 ops injected zero drops")
	}
	if cl.Resends() == 0 {
		t.Fatal("injected drops but zero resends — loss was not ridden out by resend")
	}
}
