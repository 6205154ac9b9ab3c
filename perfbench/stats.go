package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported; fewer make the tail a single outlier's value.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, sorting xs in
// place (a copy of a million latencies would be garbage that moves
// peak_rss_mb). A tail (q > 0.5) is refused when fewer than minBeyond
// samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	s := xs
	if !sort.Float64sAreSorted(s) {
		sort.Float64s(s)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	return s[rank-1], nil
}

// median is percentile(xs, 0.5), or 0 for no samples.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// reservoir keeps a uniform sample of at most cap(buf) of the values
// added (Vitter's algorithm R), so per-operation latencies cost fixed
// memory however many operations a run completes.
type reservoir struct {
	buf  []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, x)
	} else if j := r.rng.Int63n(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = x
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runtimeSample reads the Go runtime counters the per-layer metrics
// take deltas of.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// since returns the counter growth from a to s.
func (s runtimeSample) since(a runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes:   s.allocBytes - a.allocBytes,
		allocObjects: s.allocObjects - a.allocObjects,
		gcCPU:        s.gcCPU - a.gcCPU,
		totalCPU:     s.totalCPU - a.totalCPU,
	}
}

func (s *runtimeSample) add(d runtimeSample) {
	s.allocBytes += d.allocBytes
	s.allocObjects += d.allocObjects
	s.gcCPU += d.gcCPU
	s.totalCPU += d.totalCPU
}

// gcFraction is the share of CPU time a delta spent in GC.
func (s runtimeSample) gcFraction() float64 {
	if s.totalCPU > 0 {
		return s.gcCPU / s.totalCPU
	}
	return 0
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
