package clock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

func TestSystemNowNeverRetreatsAcrossGoroutines(t *testing.T) {
	// Every reading is published (under a mutex, after it was taken) and
	// compared with the newest one published before it was taken: System
	// promises that a reading never falls below one that already returned.
	var s System
	var mu sync.Mutex
	var published base.TS
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				mu.Lock()
				floor := published
				mu.Unlock()
				ts, unc := s.Now()
				if ts < floor || unc != 0 {
					t.Errorf("Now() = %d, %v after a reading of %d had returned", ts, unc, floor)
					return
				}
				mu.Lock()
				if ts > published {
					published = ts
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestFakeWakesWaitUntilAfter(t *testing.T) {
	for _, c := range []struct {
		name string
		move func(*Fake)
	}{
		// The wait is for the whole uncertainty window to clear t = 100:
		// the reading must exceed 100 + 5.
		{"Set", func(f *Fake) { f.Set(106) }},
		{"Advance", func(f *Fake) { f.Advance(6) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFake(100, 5)
			done := make(chan error, 1)
			go func() { done <- WaitUntilAfter(context.Background(), f, 100) }()
			f.Set(105) // inside the window still: true time may be 100
			select {
			case err := <-done:
				t.Fatalf("wait returned (%v) with the clock at 105±5", err)
			case <-time.After(20 * time.Millisecond):
			}
			c.move(f)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("wait slept through the clock change")
			}
		})
	}
}

func TestWaitUntilAfterHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- WaitUntilAfter(ctx, NewFake(100, 5), 100) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v, want ErrCancelled wrapping context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled wait never returned")
	}
}
