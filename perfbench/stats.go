package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// series holds samples: op latencies in milliseconds, or memory in MB.
type series []float64

func (l *series) add(d time.Duration) { *l = append(*l, ms(d)) }

// quantile interpolates linearly between the two nearest ranks
// (0 for an empty set).
func (l series) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float64 values (0 for none).
func median(xs []float64) float64 { return series(xs).quantile(0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSampler samples the memory this process holds from the OS — what
// the Go runtime has mapped minus what it has released — every 50 ms
// until stopped. Its median is steadier than a peak, which depends on
// where garbage collections happen to fall.
type memSampler struct {
	quit    chan struct{}
	done    chan series
	samples int
}

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{}), done: make(chan series)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var mbs series
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			mbs = append(mbs, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/(1<<20))
			select {
			case <-m.quit:
				m.done <- mbs
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends sampling and returns the median in MB.
func (m *memSampler) stop() float64 {
	close(m.quit)
	mbs := <-m.done
	m.samples = len(mbs)
	return mbs.quantile(0.5)
}

// memSnap is the slice of runtime.MemStats the go.* metrics diff.
type memSnap struct {
	alloc   uint64
	pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.PauseTotalNs}
}

// setGoMetrics reports allocation and GC pause per op between two
// snapshots.
func (r *report) setGoMetrics(before, after memSnap, ops int) {
	r.set("go.alloc_bytes_per_op", ratio(float64(after.alloc-before.alloc), float64(ops)), ops)
	r.set("go.gc_pause_ms_per_op", ratio(float64(after.pauseNs-before.pauseNs)/1e6, float64(ops)), ops)
}

// setLatency reports the end-to-end op metrics of the measured ops: the
// median, p90, and completed ops per second of measured time.
func (r *report) setLatency(lat series, elapsed time.Duration) {
	r.set("op_p50_ms", lat.quantile(0.5), len(lat))
	r.set("op_p90_ms", lat.quantile(0.9), len(lat))
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds(), len(lat))
	if len(lat) < 100 {
		r.note("op_p90_ms rests on %d samples, fewer than 10 beyond it", len(lat))
	}
}

// setTraceOverhead reports the traced half's median op latency and its
// difference from the untraced half's.
func (r *report) setTraceOverhead(untraced, traced series) {
	r.set("trace.op_p50_ms", traced.quantile(0.5), len(traced))
	r.set("trace.overhead_ms", traced.quantile(0.5)-untraced.quantile(0.5), len(traced)+len(untraced))
}
