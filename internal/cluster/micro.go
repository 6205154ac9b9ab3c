// Package cluster implements the paper's two-phase online clustering: the
// per-replica micro-cluster summaries (§III-B) and the weighted k-means
// macro-clustering a coordinator runs over collected summaries (§III-C).
// It also provides plain (offline) k-means as the high-overhead baseline
// the evaluation compares against.
package cluster

import (
	"fmt"
	"math"

	"github.com/georep/georep/internal/vec"
)

// Micro is a micro-cluster feature vector. Per the paper, exactly four
// quantities are maintained: the number of accesses, the overall data
// weight exchanged, the per-dimension coordinate sum, and the
// per-dimension sum of squares. Centroid and standard deviation are
// derived, never stored.
type Micro struct {
	// Count is the number of data accesses folded into the cluster.
	Count int64
	// Weight is the overall amount of data exchanged with the users in
	// the cluster (bytes, requests, or any caller-defined mass).
	Weight float64
	// Sum is the per-dimension sum of observed coordinates.
	Sum vec.Vec
	// Sum2 is the per-dimension sum of squared coordinates.
	Sum2 vec.Vec
}

// NewMicro returns an empty micro-cluster of the given dimensionality.
func NewMicro(dims int) Micro {
	return Micro{Sum: vec.New(dims), Sum2: vec.New(dims)}
}

// Dims returns the dimensionality of the cluster.
func (m *Micro) Dims() int { return m.Sum.Dim() }

// Centroid returns Sum/Count, the cluster's center of mass. An empty
// cluster yields the origin.
func (m *Micro) Centroid() vec.Vec {
	if m.Count == 0 {
		return vec.New(m.Dims())
	}
	// Divide per component rather than scaling by a reciprocal: n copies
	// of x must yield exactly x, or duplicate points spuriously fall
	// outside their own cluster's zero radius.
	out := vec.New(m.Dims())
	n := float64(m.Count)
	for d := range out {
		out[d] = m.Sum[d] / n
	}
	return out
}

// CentroidInto writes the centroid into dst (which must have the
// micro's dimensionality) without allocating — the epoch-scratch
// variant of Centroid, with identical arithmetic.
func (m *Micro) CentroidInto(dst vec.Vec) {
	if m.Count == 0 {
		for d := range dst {
			dst[d] = 0
		}
		return
	}
	n := float64(m.Count)
	for d := range dst {
		dst[d] = m.Sum[d] / n
	}
}

// StdDev returns the root-mean-square deviation of member points from the
// centroid, computed with the paper's identity Var[X] = E[X²] − E[X]²
// summed over dimensions. Negative per-dimension variances from
// floating-point cancellation are clamped to zero.
func (m *Micro) StdDev() float64 {
	if m.Count == 0 {
		return 0
	}
	n := float64(m.Count)
	var total float64
	for d := 0; d < m.Dims(); d++ {
		mean := m.Sum[d] / n
		v := m.Sum2[d]/n - mean*mean
		if v > 0 {
			total += v
		}
	}
	return math.Sqrt(total)
}

// stdDevAbout is StdDev given the centroid CentroidInto writes, which
// saves re-dividing Sum and yields the identical value.
func (m *Micro) stdDevAbout(mean vec.Vec) float64 {
	if m.Count == 0 {
		return 0
	}
	n := float64(m.Count)
	var total float64
	for d, mu := range mean {
		v := m.Sum2[d]/n - mu*mu
		if v > 0 {
			total += v
		}
	}
	return math.Sqrt(total)
}

// Absorb folds one observation at point p with the given weight into the
// cluster.
func (m *Micro) Absorb(p vec.Vec, weight float64) {
	if m.Count == 0 && m.Sum.Dim() == 0 {
		m.Sum = vec.New(p.Dim())
		m.Sum2 = vec.New(p.Dim())
	}
	m.Count++
	m.Weight += weight
	for d := range p {
		m.Sum[d] += p[d]
		m.Sum2[d] += p[d] * p[d]
	}
}

// centroidDist2 returns the squared distance between two clusters'
// centroids without allocating. Empty clusters sit at the origin.
func centroidDist2(a, b *Micro) float64 {
	na, nb := float64(a.Count), float64(b.Count)
	var s float64
	for d := range a.Sum {
		var ca, cb float64
		if a.Count != 0 {
			ca = a.Sum[d] / na
		}
		if b.Count != 0 {
			cb = b.Sum[d] / nb
		}
		diff := ca - cb
		s += diff * diff
	}
	return s
}

// absorbMicro folds b into a in place (a ← a ∪ b) without allocating.
// The arithmetic is identical to MergeMicro, so callers switching from
// the allocating form see byte-identical summaries.
func absorbMicro(a, b *Micro) {
	a.Count += b.Count
	a.Weight += b.Weight
	a.Sum.AddInPlace(b.Sum)
	a.Sum2.AddInPlace(b.Sum2)
}

// clear zeroes the cluster for reuse, keeping its vector storage.
func (m *Micro) clear() {
	m.Count = 0
	m.Weight = 0
	for d := range m.Sum {
		m.Sum[d] = 0
		m.Sum2[d] = 0
	}
}

// MergeMicro returns the cluster feature vector of a ∪ b. Feature vectors
// are additive, which is what makes micro-clusters mergeable in O(d).
func MergeMicro(a, b Micro) (Micro, error) {
	if a.Dims() != b.Dims() {
		return Micro{}, fmt.Errorf("cluster: merge dims %d vs %d", a.Dims(), b.Dims())
	}
	out := Micro{
		Count:  a.Count + b.Count,
		Weight: a.Weight + b.Weight,
		Sum:    a.Sum.Add(b.Sum),
		Sum2:   a.Sum2.Add(b.Sum2),
	}
	return out, nil
}

// Clone returns an independent copy of the cluster.
func (m Micro) Clone() Micro {
	return Micro{Count: m.Count, Weight: m.Weight, Sum: m.Sum.Clone(), Sum2: m.Sum2.Clone()}
}

// CloneInto copies m into dst, reusing dst's vector backing when the
// dimensions match — the per-epoch export path clones every micro of
// every summary, so coordinators recycle the previous epoch's storage
// instead of re-allocating it.
func (m *Micro) CloneInto(dst *Micro) {
	dst.Count, dst.Weight = m.Count, m.Weight
	dst.Sum = copyVec(dst.Sum, m.Sum)
	dst.Sum2 = copyVec(dst.Sum2, m.Sum2)
}

// copyVec copies src into dst, reallocating only on dimension mismatch.
func copyVec(dst, src vec.Vec) vec.Vec {
	if len(dst) != len(src) {
		dst = vec.New(len(src))
	}
	copy(dst, src)
	return dst
}

// SummarizerOption configures a Summarizer.
type SummarizerOption interface {
	apply(*summarizerOptions)
}

type summarizerOptions struct {
	radiusFloor float64
	decayFactor float64
}

type radiusFloorOption float64

func (o radiusFloorOption) apply(opts *summarizerOptions) { opts.radiusFloor = float64(o) }

// WithRadiusFloor sets a minimum absorption radius in coordinate units
// (milliseconds). The paper absorbs a point when it lies within one
// standard deviation of the nearest centroid; a singleton cluster has
// zero deviation, so a small floor reduces create-and-merge churn without
// changing the summaries materially. Zero (the default) reproduces the
// paper exactly.
func WithRadiusFloor(ms float64) SummarizerOption { return radiusFloorOption(ms) }

// Summarizer maintains at most maxClusters micro-clusters over a stream
// of coordinate observations — the state each replica server keeps
// (paper symbol m). It is not safe for concurrent use; replica servers
// own one summarizer each.
type Summarizer struct {
	maxClusters int
	dims        int
	opts        summarizerOptions
	// clusters holds the live micro-clusters. Its backing holds one more
	// slot than the budget (Observe opens the over-budget cluster before
	// merging), and the slots past its length keep the buffers of
	// retired clusters for reuse, so ingest never allocates.
	clusters []Micro
	// cent caches every cluster's centroid, dims values per cluster in
	// cluster order, and rad its absorption radius: StdDev raised to the
	// radius floor. An entry is refreshed only when its cluster changes,
	// so the per-access scans read contiguous memory and divide nothing.
	cent     []float64
	rad      []float64
	observed int64
}

// NewSummarizer returns a summarizer holding at most maxClusters
// micro-clusters of the given dimensionality.
func NewSummarizer(maxClusters, dims int, opts ...SummarizerOption) (*Summarizer, error) {
	if err := checkShape(maxClusters, dims); err != nil {
		return nil, err
	}
	s := new(Summarizer)
	if err := s.init(maxClusters, dims, make([]float64, arenaLen(maxClusters, dims)), opts); err != nil {
		return nil, err
	}
	return s, nil
}

// checkShape rejects a summarizer shape that cannot hold a cluster.
func checkShape(maxClusters, dims int) error {
	if maxClusters <= 0 {
		return fmt.Errorf("cluster: maxClusters must be positive, got %d", maxClusters)
	}
	if dims <= 0 {
		return fmt.Errorf("cluster: dims must be positive, got %d", dims)
	}
	return nil
}

// arenaLen is the float storage a summarizer of the given shape owns:
// for each of its maxClusters+1 cluster slots, Sum, Sum2, the cached
// centroid and the cached radius.
func arenaLen(maxClusters, dims int) int { return (maxClusters + 1) * (3*dims + 1) }

// init sets up s, which checkShape has accepted, over an arena of
// arenaLen floats.
func (s *Summarizer) init(maxClusters, dims int, arena []float64, opts []SummarizerOption) error {
	slots := maxClusters + 1
	*s = Summarizer{maxClusters: maxClusters, dims: dims}
	for _, o := range opts {
		o.apply(&s.opts)
	}
	if s.opts.radiusFloor < 0 {
		return fmt.Errorf("cluster: radius floor %v must be non-negative", s.opts.radiusFloor)
	}
	s.cent, arena = arena[:0:slots*dims], arena[slots*dims:]
	s.rad, arena = arena[:0:slots], arena[slots:]
	s.clusters = make([]Micro, slots)
	for i := range s.clusters {
		s.clusters[i] = Micro{Sum: arena[:dims:dims], Sum2: arena[dims : 2*dims : 2*dims]}
		arena = arena[2*dims:]
	}
	s.clusters = s.clusters[:0]
	return nil
}

// checkObservation applies Observe's input checks: the point's
// dimensionality, finite coordinates and a non-negative weight.
func checkObservation(p vec.Vec, weight float64, dims int) error {
	if p.Dim() != dims {
		return fmt.Errorf("cluster: observation dims %d, summarizer dims %d", p.Dim(), dims)
	}
	if !p.IsFinite() {
		return fmt.Errorf("cluster: non-finite observation %v", p)
	}
	if weight < 0 {
		return fmt.Errorf("cluster: negative weight %v", weight)
	}
	return nil
}

// checkAccess applies the batch form of the checks: client must index
// pos, and its position and the weight must pass checkObservation.
func checkAccess(client int, pos []vec.Vec, weight float64, dims int) error {
	if client < 0 || client >= len(pos) {
		return fmt.Errorf("cluster: client %d outside position table of %d", client, len(pos))
	}
	return checkObservation(pos[client], weight, dims)
}

// checkWeights rejects a weight slice that does not pair with clients;
// nil means unit weights.
func checkWeights(clients []int, weights []float64) error {
	if weights != nil && len(weights) != len(clients) {
		return fmt.Errorf("cluster: batch of %d clients with %d weights", len(clients), len(weights))
	}
	return nil
}

// checkBatch checks every access of a batch, so a batch with one bad
// access can be rejected before any of it is folded.
func checkBatch(clients []int, pos []vec.Vec, weights []float64, dims int) error {
	if err := checkWeights(clients, weights); err != nil {
		return err
	}
	for i, c := range clients {
		if err := checkAccess(c, pos, weightAt(weights, i), dims); err != nil {
			return err
		}
	}
	return nil
}

// weightAt returns access i's weight, 1 when weights is nil.
func weightAt(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

// Observe folds one client access at coordinate p with the given weight
// into the summary, following §III-B: absorb into the nearest cluster if
// the point is within its standard deviation, otherwise open a new
// cluster and, if over capacity, merge the two closest clusters.
func (s *Summarizer) Observe(p vec.Vec, weight float64) error {
	if err := checkObservation(p, weight, s.dims); err != nil {
		return err
	}
	s.observe(p, weight)
	return nil
}

// ObserveBatch folds a batch of accesses in order: clients[i] accessed
// with weights[i] from position pos[clients[i]]; nil weights means unit
// weight. Every access is checked first, so a batch with one bad access
// folds nothing and returns the error.
func (s *Summarizer) ObserveBatch(clients []int, pos []vec.Vec, weights []float64) error {
	if err := checkBatch(clients, pos, weights, s.dims); err != nil {
		return err
	}
	for i, c := range clients {
		s.observe(pos[c], weightAt(weights, i))
	}
	return nil
}

// observe is Observe on an observation that passed checkObservation.
func (s *Summarizer) observe(p vec.Vec, weight float64) {
	s.observed++

	if len(s.clusters) > 0 {
		best, bestD2 := s.nearest(p)
		if math.Sqrt(bestD2) <= s.rad[best] {
			s.clusters[best].Absorb(p, weight)
			s.refresh(best)
			return
		}
	}

	n := len(s.clusters)
	s.clusters = s.clusters[:n+1]
	s.clusters[n].clear()
	s.clusters[n].Absorb(p, weight)
	s.resizeCache()
	s.refresh(n)
	if len(s.clusters) > s.maxClusters {
		s.mergeClosestPair()
	}
}

// resizeCache matches the cache length to the cluster count. Entries a
// shrink drops are discarded; the caller refreshes entries a grow adds.
func (s *Summarizer) resizeCache() {
	s.cent = s.cent[:len(s.clusters)*s.dims]
	s.rad = s.rad[:len(s.clusters)]
}

// refresh recomputes cluster i's cached centroid and radius. The
// arithmetic is CentroidInto's and StdDev's, so the cache holds exactly
// the values deriving them afresh would give.
func (s *Summarizer) refresh(i int) {
	m := &s.clusters[i]
	c := s.cent[i*s.dims : (i+1)*s.dims]
	m.CentroidInto(c)
	r := m.stdDevAbout(c)
	if r < s.opts.radiusFloor {
		r = s.opts.radiusFloor
	}
	s.rad[i] = r
}

// nearest returns the index of the cluster whose cached centroid is
// closest to p and the squared distance to it, the first index winning
// ties. Each squared distance is summed in dimension order, as
// Centroid().Dist2(p) does.
func (s *Summarizer) nearest(p vec.Vec) (int, float64) {
	best, bestD2 := 0, math.Inf(1)
	cent := s.cent
	if len(p) == 3 {
		// The loop below, unrolled for 3-D coordinates (the default
		// CoordDims); the sum keeps its left-to-right order, so both
		// forms agree bit for bit. With
		// only the general loop, stream-1m ingested ~15% fewer
		// accesses per second (DESIGN.md §12).
		x, y, z := p[0], p[1], p[2]
		for i, c := 0, cent; len(c) >= 3; i, c = i+1, c[3:] {
			dx, dy, dz := c[0]-x, c[1]-y, c[2]-z
			if d2 := dx*dx + dy*dy + dz*dz; d2 < bestD2 {
				best, bestD2 = i, d2
			}
		}
		return best, bestD2
	}
	for i := range s.rad {
		c := cent[i*len(p) : (i+1)*len(p)]
		var d2 float64
		for d, x := range p {
			diff := c[d] - x
			d2 += diff * diff
		}
		if d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, bestD2
}

// mergeClosestPair merges the two clusters with the closest cached
// centroids.
func (s *Summarizer) mergeClosestPair() {
	n, dims, cent := len(s.clusters), s.dims, s.cent
	if n < 2 {
		return
	}
	bi, bj := s.closestPair()
	absorbMicro(&s.clusters[bi], &s.clusters[bj])
	// Swap-remove bj, retiring its buffers past the end and moving the
	// last cluster's cache entry into its place.
	last := n - 1
	s.clusters[bj], s.clusters[last] = s.clusters[last], s.clusters[bj]
	s.clusters = s.clusters[:last]
	copy(cent[bj*dims:(bj+1)*dims], cent[last*dims:])
	s.rad[bj] = s.rad[last]
	s.resizeCache()
	s.refresh(bi)
}

// closestPair returns the clusters i < j whose cached centroids are
// closest, the first pair in (i, j) order winning ties. Like nearest,
// it sums each squared distance in dimension order, as centroidDist2
// does.
func (s *Summarizer) closestPair() (int, int) {
	n, dims, cent := len(s.rad), s.dims, s.cent
	bi, bj, best := 0, 1, math.Inf(1)
	if dims == 3 {
		// Unrolled as in nearest.
		for i := 0; i+1 < n; i++ {
			x, y, z := cent[3*i], cent[3*i+1], cent[3*i+2]
			for j, c := i+1, cent[3*(i+1):]; len(c) >= 3; j, c = j+1, c[3:] {
				dx, dy, dz := x-c[0], y-c[1], z-c[2]
				if d2 := dx*dx + dy*dy + dz*dz; d2 < best {
					bi, bj, best = i, j, d2
				}
			}
		}
		return bi, bj
	}
	for i := 0; i < n; i++ {
		ci := cent[i*dims : (i+1)*dims]
		for j := i + 1; j < n; j++ {
			cj := cent[j*dims : (j+1)*dims]
			var d2 float64
			for d, x := range ci {
				diff := x - cj[d]
				d2 += diff * diff
			}
			if d2 < best {
				bi, bj, best = i, j, d2
			}
		}
	}
	return bi, bj
}

// Clusters returns an independent copy of the current micro-clusters.
func (s *Summarizer) Clusters() []Micro {
	return s.ClustersInto(nil)
}

// ClustersInto is Clusters copying into dst's backing where possible:
// element structs and their vectors are reused when dimensions match, so
// a caller exporting every epoch re-allocates nothing in steady state.
func (s *Summarizer) ClustersInto(dst []Micro) []Micro {
	n := len(s.clusters)
	if cap(dst) < n {
		grown := make([]Micro, n)
		// Carry the old elements forward: their vector backing is what
		// CloneInto reuses.
		copy(grown, dst[:cap(dst)])
		dst = grown
	} else {
		dst = dst[:n]
	}
	for i := range s.clusters {
		s.clusters[i].CloneInto(&dst[i])
	}
	return dst
}

// Len returns the current number of micro-clusters.
func (s *Summarizer) Len() int { return len(s.clusters) }

// Observed returns how many observations the summarizer has consumed.
func (s *Summarizer) Observed() int64 { return s.observed }

// TotalWeight returns the summed weight across clusters.
func (s *Summarizer) TotalWeight() float64 {
	var w float64
	for i := range s.clusters {
		w += s.clusters[i].Weight
	}
	return w
}

// Decay scales every cluster's mass by factor in (0, 1], exponentially
// aging out old accesses so the summary tracks *recent* usage as the
// paper requires. Clusters whose count rounds to zero are dropped. This
// is called by the replica manager between placement epochs.
func (s *Summarizer) Decay(factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("cluster: decay factor %v out of (0,1]", factor)
	}
	kept := 0
	for i := range s.clusters {
		c := &s.clusters[i]
		newCount := int64(math.Round(float64(c.Count) * factor))
		if newCount <= 0 {
			continue
		}
		// Scale Sum/Sum2 by the realized count ratio, not the nominal
		// factor, so the centroid and deviation are exactly preserved
		// despite integer rounding of Count.
		ratio := float64(newCount) / float64(c.Count)
		c.Count = newCount
		c.Weight *= factor
		c.Sum.ScaleInPlace(ratio)
		c.Sum2.ScaleInPlace(ratio)
		// Swap rather than copy, so dropped clusters' buffers end up
		// past the new length for reuse; kept ones keep their order.
		s.clusters[kept], s.clusters[i] = s.clusters[i], s.clusters[kept]
		kept++
	}
	s.clusters = s.clusters[:kept]
	// Scaling can move a centroid by an ulp, so every entry is rederived.
	s.resizeCache()
	for i := range s.clusters {
		s.refresh(i)
	}
	return nil
}

// Reset discards all state, keeping the configuration and the cluster
// buffers.
func (s *Summarizer) Reset() {
	s.clusters = s.clusters[:0]
	s.resizeCache()
	s.observed = 0
}
