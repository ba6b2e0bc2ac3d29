package latch

import (
	"testing"
	"time"
)

func TestContendedCountsOnlyAcquisitionsThatWaited(t *testing.T) {
	var l Latch
	l.Lock()
	l.Unlock()
	l.RLock()
	l.RUnlock()
	if n := l.Contended(); n != 0 {
		t.Fatalf("uncontended acquisitions counted: %d", n)
	}
	l.Lock()
	got := make(chan struct{})
	go func() {
		l.Lock() // held: must wait, and be counted before it does
		close(got)
	}()
	for l.Contended() == 0 {
		select {
		case <-got:
			t.Fatal("second Lock got a held latch")
		case <-time.After(100 * time.Microsecond):
		}
	}
	l.Unlock()
	<-got
	l.Unlock()
	if n := l.Contended(); n != 1 {
		t.Fatalf("one blocked Lock counted %d times", n)
	}
}
