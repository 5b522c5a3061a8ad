package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapLive returns the live heap in bytes. Two collections: the first
// moves sync.Pool contents (the collector's pooled request buffers) to
// the victim cache, the second frees them.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// procSample is the process counters the ledger differences.
type procSample struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure; only the traced ledger reads it
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC, pauseNs: m.PauseTotalNs, cpu: cpu}
}
