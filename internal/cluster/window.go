package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/georep/georep/internal/vec"
)

// This file implements the time-horizon machinery of the CluStream
// framework the paper cites for its micro-clusters (Aggarwal, Han, Wang,
// Yu — "A framework for clustering evolving data streams", VLDB 2003):
// cluster feature vectors are additive, so a snapshot taken at time t1
// can be SUBTRACTED from the state at t2 to recover a summary of exactly
// the accesses in (t1, t2]. Snapshots are retained in a pyramidal time
// frame — exponentially sparser with age — so any horizon is answerable
// within a factor-of-two accuracy from O(log T) stored snapshots.
//
// The Summarizer's exponential decay is the cheap approximation of
// recency; WindowedSummarizer is the exact, windowed alternative for
// callers that need "accesses in the last hour" semantics.

// idSet is a sorted set of micro-cluster identities. CluStream tracks
// the ids merged into each cluster so that snapshot clusters can be
// matched to their descendants for subtraction.
type idSet []uint64

func (s idSet) contains(x uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// subsetOf reports whether every id of s is in t.
func (s idSet) subsetOf(t idSet) bool {
	for _, x := range s {
		if !t.contains(x) {
			return false
		}
	}
	return true
}

func (s idSet) union(t idSet) idSet {
	out := make(idSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

func (s idSet) clone() idSet { return append(idSet(nil), s...) }

// trackedMicro is a micro-cluster with its identity lineage.
type trackedMicro struct {
	Micro
	ids idSet
}

// snapshotRec is one retained state copy.
type snapshotRec struct {
	timeMs   float64
	seq      uint64 // snapshot ordinal, drives pyramidal retention
	clusters []trackedMicro
}

// WindowedSummarizer maintains micro-clusters like Summarizer and
// additionally keeps pyramidal snapshots so callers can summarize any
// recent time window exactly (up to CluStream's factor-2 horizon
// granularity). Not safe for concurrent use.
type WindowedSummarizer struct {
	maxClusters int
	dims        int
	opts        summarizerOptions
	clusters    []trackedMicro
	nextID      uint64
	snapshots   []snapshotRec
	snapSeq     uint64
	// maxOrders bounds pyramidal retention: for each order o we keep at
	// most snapshotsPerOrder snapshots whose seq is divisible by 2^o but
	// not 2^(o+1).
	snapshotsPerOrder int
}

// NewWindowedSummarizer mirrors NewSummarizer with snapshot support.
func NewWindowedSummarizer(maxClusters, dims int, opts ...SummarizerOption) (*WindowedSummarizer, error) {
	if maxClusters <= 0 {
		return nil, fmt.Errorf("cluster: maxClusters must be positive, got %d", maxClusters)
	}
	if dims <= 0 {
		return nil, fmt.Errorf("cluster: dims must be positive, got %d", dims)
	}
	w := &WindowedSummarizer{
		maxClusters:       maxClusters,
		dims:              dims,
		snapshotsPerOrder: 2, // CluStream's α=2, l=2 gives 2 per order
	}
	for _, o := range opts {
		o.apply(&w.opts)
	}
	if w.opts.radiusFloor < 0 {
		return nil, fmt.Errorf("cluster: radius floor %v must be non-negative", w.opts.radiusFloor)
	}
	return w, nil
}

// Observe folds one observation in, exactly as Summarizer.Observe, while
// maintaining identity lineage.
func (w *WindowedSummarizer) Observe(p vec.Vec, weight float64) error {
	if err := checkObservation(p, weight, w.dims); err != nil {
		return err
	}
	w.observe(p, weight)
	return nil
}

// ObserveBatch is Summarizer.ObserveBatch with identity lineage: every
// access is checked before any is folded.
func (w *WindowedSummarizer) ObserveBatch(clients []int, pos []vec.Vec, weights []float64) error {
	if err := checkBatch(clients, pos, weights, w.dims); err != nil {
		return err
	}
	for i, c := range clients {
		w.observe(pos[c], weightAt(weights, i))
	}
	return nil
}

// observe is Observe on an observation that passed checkObservation.
func (w *WindowedSummarizer) observe(p vec.Vec, weight float64) {
	if len(w.clusters) > 0 {
		best, bestD2 := 0, math.Inf(1)
		for i := range w.clusters {
			if d2 := w.clusters[i].Centroid().Dist2(p); d2 < bestD2 {
				best, bestD2 = i, d2
			}
		}
		radius := w.clusters[best].StdDev()
		if radius < w.opts.radiusFloor {
			radius = w.opts.radiusFloor
		}
		if math.Sqrt(bestD2) <= radius {
			w.clusters[best].Absorb(p, weight)
			return
		}
	}

	w.nextID++
	fresh := trackedMicro{Micro: NewMicro(w.dims), ids: idSet{w.nextID}}
	fresh.Absorb(p, weight)
	w.clusters = append(w.clusters, fresh)
	if len(w.clusters) > w.maxClusters {
		w.mergeClosestPair()
	}
}

func (w *WindowedSummarizer) mergeClosestPair() {
	if len(w.clusters) < 2 {
		return
	}
	centroids := make([]vec.Vec, len(w.clusters))
	for i := range w.clusters {
		centroids[i] = w.clusters[i].Centroid()
	}
	bi, bj, bestD2 := 0, 1, math.Inf(1)
	for i := 0; i < len(w.clusters); i++ {
		for j := i + 1; j < len(w.clusters); j++ {
			if d2 := centroids[i].Dist2(centroids[j]); d2 < bestD2 {
				bi, bj, bestD2 = i, j, d2
			}
		}
	}
	merged, err := MergeMicro(w.clusters[bi].Micro, w.clusters[bj].Micro)
	if err != nil {
		return // unreachable: dims are uniform by construction
	}
	w.clusters[bi] = trackedMicro{
		Micro: merged,
		ids:   w.clusters[bi].ids.union(w.clusters[bj].ids),
	}
	w.clusters[bj] = w.clusters[len(w.clusters)-1]
	w.clusters = w.clusters[:len(w.clusters)-1]
}

// Clusters returns copies of the current micro-clusters (full history).
func (w *WindowedSummarizer) Clusters() []Micro {
	out := make([]Micro, len(w.clusters))
	for i := range w.clusters {
		out[i] = w.clusters[i].Micro.Clone()
	}
	return out
}

// Len returns the current number of micro-clusters.
func (w *WindowedSummarizer) Len() int { return len(w.clusters) }

// Snapshot records the current state at the given timestamp and prunes
// old snapshots pyramidally. Timestamps must be non-decreasing.
func (w *WindowedSummarizer) Snapshot(timeMs float64) error {
	if n := len(w.snapshots); n > 0 && timeMs < w.snapshots[n-1].timeMs {
		return fmt.Errorf("cluster: snapshot time %v before previous %v", timeMs, w.snapshots[n-1].timeMs)
	}
	w.snapSeq++
	rec := snapshotRec{timeMs: timeMs, seq: w.snapSeq}
	rec.clusters = make([]trackedMicro, len(w.clusters))
	for i := range w.clusters {
		rec.clusters[i] = trackedMicro{Micro: w.clusters[i].Micro.Clone(), ids: w.clusters[i].ids.clone()}
	}
	w.snapshots = append(w.snapshots, rec)
	w.prune()
	return nil
}

// order returns the largest o with 2^o dividing seq.
func order(seq uint64) int {
	o := 0
	for seq%2 == 0 {
		seq /= 2
		o++
	}
	return o
}

// prune enforces the pyramidal retention: at most snapshotsPerOrder
// snapshots per order, keeping the newest of each order.
func (w *WindowedSummarizer) prune() {
	counts := make(map[int]int)
	kept := w.snapshots[:0]
	// Iterate newest → oldest so the newest of each order survive.
	for i := len(w.snapshots) - 1; i >= 0; i-- {
		o := order(w.snapshots[i].seq)
		if counts[o] < w.snapshotsPerOrder {
			counts[o]++
			kept = append(kept, w.snapshots[i])
		}
	}
	// Restore chronological order.
	sort.Slice(kept, func(i, j int) bool { return kept[i].seq < kept[j].seq })
	w.snapshots = kept
}

// SnapshotCount returns how many snapshots are retained (O(log n) of the
// number taken).
func (w *WindowedSummarizer) SnapshotCount() int { return len(w.snapshots) }

// Window returns micro-clusters summarizing approximately the accesses
// after (nowMs − horizonMs): the newest retained snapshot no younger
// than the horizon boundary is subtracted from the current state. With
// pyramidal retention the realized window is within a factor ~2 of the
// requested horizon (CluStream's guarantee). If no snapshot is old
// enough, the full history is returned.
func (w *WindowedSummarizer) Window(nowMs, horizonMs float64) ([]Micro, error) {
	if horizonMs <= 0 {
		return nil, fmt.Errorf("cluster: horizon must be positive, got %v", horizonMs)
	}
	boundary := nowMs - horizonMs
	var base *snapshotRec
	for i := range w.snapshots {
		if w.snapshots[i].timeMs <= boundary {
			base = &w.snapshots[i]
		}
	}
	if base == nil {
		return w.Clusters(), nil
	}
	return subtractState(w.clusters, base.clusters), nil
}

// subtractState computes current − snapshot per CluStream: a snapshot
// cluster is matched to the current cluster whose id lineage contains
// all of its ids (merges only ever grow lineages), and its feature
// vector is subtracted. Results with non-positive count are dropped.
func subtractState(current []trackedMicro, snap []trackedMicro) []Micro {
	out := make([]Micro, 0, len(current))
	for _, c := range current {
		res := c.Micro.Clone()
		for _, s := range snap {
			if !s.ids.subsetOf(c.ids) {
				continue
			}
			res.Count -= s.Count
			res.Weight -= s.Weight
			res.Sum.SubInPlace(s.Sum)
			res.Sum2.SubInPlace(s.Sum2)
		}
		if res.Count <= 0 {
			continue
		}
		if res.Weight < 0 {
			res.Weight = 0
		}
		// Numerical hygiene: squared sums cannot be negative.
		for d := range res.Sum2 {
			if res.Sum2[d] < 0 {
				res.Sum2[d] = 0
			}
		}
		out = append(out, res)
	}
	return out
}
