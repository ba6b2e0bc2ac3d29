package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// The yardstick is a fixed piece of work that runs nothing of the
// repository: a random walk over an array the size of a few thousand pages,
// and round trips over a loopback TCP connection. The machines this
// benchmark runs on change speed by themselves, by up to 2x and for minutes
// or hours at a time (neighbours on the same host contend for the shared
// cache and the memory system), and the transaction rate of every workload
// follows these two kernels closely: over four sets of ten 20 s runs per
// workload the raw timed medians spread by up to 29% within a set and moved
// by up to 24% between sets, the same figures divided by the yardstick's
// speed by at most 8.3% and 9.8% (README, "Run-to-run spread"). The
// untraced pass therefore measures the yardstick around every slice of
// work and reports its timed metrics at the reference machine's speed.
const (
	// yardArray is the random walk's array: 32 MiB, beyond a core's own
	// caches and inside the cache the host's other tenants share.
	yardArray = 4 << 20
	// yardSteps and yardPings size one measurement to about 30 ms + 20 ms.
	yardSteps = 3 << 20
	yardPings = 2000
	// The reference machine: the 2-vCPU VM this was sized on, when quiet.
	// A speed of 1 means the yardstick ran at these rates, so a corrected
	// figure equals the raw one there.
	yardRefSteps = 1.15e8 // array steps per second
	yardRefPings = 1.22e5 // round trips per second
	// yardMiB is what the yardstick adds to the process's resident set.
	yardMiB = yardArray * 8 / (1 << 20)
)

type yardstick struct {
	arr  []uint64
	x    uint64
	lis  net.Listener
	conn net.Conn
	echo chan struct{} // closed when the echo goroutine has returned
	buf  [128]byte
	// Rates of the most recent measurement, for the notes.
	steps, pings float64
}

func newYardstick() (*yardstick, error) {
	arr, err := yardAlloc()
	if err != nil {
		return nil, err
	}
	y := &yardstick{arr: arr, x: 88172645463325252, echo: make(chan struct{})}
	for i := range y.arr {
		y.arr[i] = uint64(i)
	}
	if y.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		yardFree(arr)
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	go func() {
		defer close(y.echo)
		c, err := y.lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [128]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	if y.conn, err = net.Dial("tcp", y.lis.Addr().String()); err != nil {
		y.lis.Close()
		<-y.echo
		yardFree(arr)
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	return y, nil
}

func (y *yardstick) close() {
	y.conn.Close()
	y.lis.Close()
	<-y.echo
	yardFree(y.arr)
}

// speed runs the yardstick once and returns the machine's speed right now
// relative to the reference machine: the geometric mean of the two
// kernels' rates over their reference rates.
func (y *yardstick) speed() (float64, error) {
	t0 := time.Now()
	x, arr := y.x, y.arr[:yardArray]
	for i := 0; i < yardSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		arr[x&(yardArray-1)] += x
	}
	y.x = x
	t1 := time.Now()
	for i := 0; i < yardPings; i++ {
		if _, err := y.conn.Write(y.buf[:]); err != nil {
			return 0, fmt.Errorf("yardstick: %w", err)
		}
		if _, err := io.ReadFull(y.conn, y.buf[:]); err != nil {
			return 0, fmt.Errorf("yardstick: %w", err)
		}
	}
	t2 := time.Now()
	y.steps = yardSteps / t1.Sub(t0).Seconds()
	y.pings = yardPings / t2.Sub(t1).Seconds()
	return math.Sqrt(y.steps / yardRefSteps * y.pings / yardRefPings), nil
}
