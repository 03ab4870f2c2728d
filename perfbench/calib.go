package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference box's speed drifts by up to 1.7× over minutes (other
// tenants of the host), and simulations and service requests slow down
// with it. Every timing is therefore scaled to a machine on which a
// fixed calibration kernel takes kernelRef: the kernel runs after every
// round, and a phase's figures are scaled by its median kernel time.
// The kernel shares no code with the program under test and allocates
// nothing, so a change to the program cannot move it.
const kernelRef = 12 * time.Millisecond

const (
	kernelSlots = 1 << 15 // 256 KiB table per worker
	kernelIters = 200000
)

type kernelState struct {
	table []uint64
	heap  []uint64
	buf   []byte
	sink  uint64 // keeps the kernel's result live so no work is elided
}

var kernels = func() []*kernelState {
	ks := make([]*kernelState, workers)
	for i := range ks {
		ks[i] = &kernelState{table: make([]uint64, kernelSlots), heap: make([]uint64, 0, 1024), buf: make([]byte, 1<<16)}
	}
	return ks
}()

// run does a fixed amount of integer, memory and hashing work: random
// updates of a table, a bounded binary heap, and sha256 over a buffer.
func (k *kernelState) run(seed uint64) {
	clear(k.table)
	h := k.heap[:0]
	x := seed*0x9E3779B97F4A7C15 + 1
	var acc uint64
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[x&(kernelSlots-1)] += x
		h = append(h, x>>20)
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if h[p] <= h[c] {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
		if len(h) > 512 {
			acc += h[0]
			n := len(h) - 1
			h[0], h = h[n], h[:n]
			for c := 0; ; {
				l := 2*c + 1
				if l >= n {
					break
				}
				if r := l + 1; r < n && h[r] < h[l] {
					l = r
				}
				if h[c] <= h[l] {
					break
				}
				h[c], h[l] = h[l], h[c]
				c = l
			}
		}
	}
	for i := range k.buf {
		k.buf[i] = byte(x >> (i & 63))
	}
	s := sha256.Sum256(k.buf)
	k.heap, k.sink = h, acc+uint64(s[0])
}

// kernelOnce runs the kernel on every worker at once, as the workloads
// load every worker, and returns the wall time.
func kernelOnce() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			kernels[w].run(uint64(w + 1))
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// calibrate collects the garbage the last round left, so no GC work
// overlaps the kernel, and returns the median of three kernel runs.
func calibrate() time.Duration {
	runtime.GC()
	ts := []time.Duration{kernelOnce(), kernelOnce(), kernelOnce()}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[1]
}
