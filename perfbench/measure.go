package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// now reads the host clock. Host time is the benchmark's measurement and
// only ever lands in reported metrics and spans, never in simulator state.
func now() time.Time {
	//lint:ignore detrand host timing is the benchmark's measurement; it never feeds simulator state
	return time.Now()
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

const (
	mAllocs  = "/gc/heap/allocs:bytes"
	mLive    = "/gc/heap/live:bytes"
	mGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	mTotCPU  = "/cpu/classes/total:cpu-seconds"
	mIdleCPU = "/cpu/classes/idle:cpu-seconds"
)

// readMetrics samples the named runtime/metrics values.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// heapWatch records the highest live heap seen at the end of any GC cycle
// while armed. A finalizer on a sentinel object runs once per cycle and
// re-arms itself, so the watch costs nothing between collections.
type heapWatch struct {
	mu    sync.Mutex
	peak  float64
	armed atomic.Bool
}

type sentinel struct{ _ [16]byte }

func (w *heapWatch) start() {
	w.mu.Lock()
	w.peak = readMetrics(mLive)[0]
	w.mu.Unlock()
	if w.armed.Swap(true) {
		return
	}
	w.plant()
}

func (w *heapWatch) plant() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if !w.armed.Load() {
			return
		}
		w.observe()
		w.plant()
	})
}

func (w *heapWatch) observe() {
	live := readMetrics(mLive)[0]
	w.mu.Lock()
	if live > w.peak {
		w.peak = live
	}
	w.mu.Unlock()
}

// stop disarms the watch and returns the peak live heap in bytes,
// including the live heap the pass left behind.
func (w *heapWatch) stop() float64 {
	runtime.GC()
	w.observe()
	w.armed.Store(false)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// passStats is one pass's host-side cost.
type passStats struct {
	wallS, cpuS, allocMB, peakHeapMB float64
	gcCPUS, goCPUS                   float64
}

// measure runs f once with the heap settled beforehand and returns its host
// cost. Simulated results never pass through here.
func measure(hw *heapWatch, f func() error) (passStats, error) {
	runtime.GC()
	hw.start()
	before := readMetrics(mAllocs, mGCCPU, mTotCPU, mIdleCPU)
	cpu0, err := cpuSeconds()
	if err != nil {
		return passStats{}, err
	}
	t0 := now()
	ferr := f()
	wall := now().Sub(t0).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return passStats{}, err
	}
	after := readMetrics(mAllocs)
	peak := hw.stop()
	// The runtime's CPU-class estimates are only brought up to date by a
	// collection, which stop has just forced.
	cls := readMetrics(mGCCPU, mTotCPU, mIdleCPU)
	return passStats{
		wallS:      wall,
		cpuS:       cpu1 - cpu0,
		allocMB:    (after[0] - before[0]) / 1e6,
		peakHeapMB: peak / 1e6,
		gcCPUS:     cls[0] - before[1],
		goCPUS:     (cls[1] - before[2]) - (cls[2] - before[3]),
	}, ferr
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
