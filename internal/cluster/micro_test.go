package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/vec"
)

func TestMicroCentroidAndStdDev(t *testing.T) {
	m := NewMicro(2)
	m.Absorb(vec.Of(0, 0), 1)
	m.Absorb(vec.Of(2, 0), 1)
	m.Absorb(vec.Of(0, 2), 1)
	m.Absorb(vec.Of(2, 2), 1)
	c := m.Centroid()
	if !c.Equal(vec.Of(1, 1)) {
		t.Errorf("centroid = %v, want (1,1)", c)
	}
	// Each dim has variance 1, so RMS deviation = sqrt(2).
	if got := m.StdDev(); math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("stddev = %v, want sqrt(2)", got)
	}
	if m.Count != 4 || m.Weight != 4 {
		t.Errorf("count=%d weight=%v", m.Count, m.Weight)
	}
}

func TestMicroEmpty(t *testing.T) {
	m := NewMicro(3)
	if !m.Centroid().IsZero() {
		t.Error("empty centroid should be origin")
	}
	if m.StdDev() != 0 {
		t.Error("empty stddev should be 0")
	}
}

func TestMicroAbsorbLazyInit(t *testing.T) {
	var m Micro // zero value, no dims yet
	m.Absorb(vec.Of(1, 2, 3), 5)
	if m.Dims() != 3 || m.Count != 1 || m.Weight != 5 {
		t.Errorf("lazy init failed: %+v", m)
	}
}

func TestMergeMicroAdditive(t *testing.T) {
	a := NewMicro(2)
	a.Absorb(vec.Of(0, 0), 1)
	a.Absorb(vec.Of(2, 2), 1)
	b := NewMicro(2)
	b.Absorb(vec.Of(4, 4), 3)

	m, err := MergeMicro(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 3 || m.Weight != 5 {
		t.Errorf("merged count=%d weight=%v", m.Count, m.Weight)
	}
	want := vec.Of(2, 2) // (0+2+4)/3
	if !m.Centroid().Equal(want) {
		t.Errorf("merged centroid = %v, want %v", m.Centroid(), want)
	}

	if _, err := MergeMicro(NewMicro(2), NewMicro(3)); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestMicroCloneIndependent(t *testing.T) {
	a := NewMicro(2)
	a.Absorb(vec.Of(1, 1), 1)
	c := a.Clone()
	c.Absorb(vec.Of(9, 9), 1)
	if a.Count != 1 {
		t.Error("clone aliases original")
	}
}

func TestNewSummarizerValidation(t *testing.T) {
	if _, err := NewSummarizer(0, 2); err == nil {
		t.Error("maxClusters=0 should fail")
	}
	if _, err := NewSummarizer(4, 0); err == nil {
		t.Error("dims=0 should fail")
	}
	if _, err := NewSummarizer(4, 2, WithRadiusFloor(-1)); err == nil {
		t.Error("negative radius floor should fail")
	}
}

func TestSummarizerObserveValidation(t *testing.T) {
	s, err := NewSummarizer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(vec.Of(1, 2, 3), 1); err == nil {
		t.Error("dim mismatch should fail")
	}
	if err := s.Observe(vec.Of(math.NaN(), 0), 1); err == nil {
		t.Error("NaN observation should fail")
	}
	if err := s.Observe(vec.Of(1, 2), -1); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestSummarizerCapRespected(t *testing.T) {
	s, err := NewSummarizer(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := vec.Of(r.Float64()*200, r.Float64()*200)
		if err := s.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 5 {
			t.Fatalf("cluster count %d exceeds cap 5", s.Len())
		}
	}
	if s.Observed() != 1000 {
		t.Errorf("Observed = %d", s.Observed())
	}
	// Mass conservation: every observation is in some cluster.
	var count int64
	for _, c := range s.Clusters() {
		count += c.Count
	}
	if count != 1000 {
		t.Errorf("total count %d, want 1000", count)
	}
	if w := s.TotalWeight(); w != 1000 {
		t.Errorf("total weight %v, want 1000", w)
	}
}

func TestSummarizerFindsSeparatedGroups(t *testing.T) {
	s, err := NewSummarizer(4, 2, WithRadiusFloor(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	centers := []vec.Vec{vec.Of(0, 0), vec.Of(100, 0), vec.Of(0, 100)}
	for i := 0; i < 600; i++ {
		c := centers[i%3]
		p := vec.Of(c[0]+r.NormFloat64(), c[1]+r.NormFloat64())
		if err := s.Observe(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Every true center should be within a few units of some
	// micro-cluster centroid.
	for _, center := range centers {
		bestD := math.Inf(1)
		for _, mc := range s.Clusters() {
			if d := mc.Centroid().Dist(center); d < bestD {
				bestD = d
			}
		}
		if bestD > 10 {
			t.Errorf("no micro-cluster near %v (best %v)", center, bestD)
		}
	}
}

func TestSummarizerClustersAreCopies(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	if err := s.Observe(vec.Of(1, 1), 1); err != nil {
		t.Fatal(err)
	}
	cs := s.Clusters()
	cs[0].Sum[0] = 999
	if s.Clusters()[0].Sum[0] == 999 {
		t.Error("Clusters returned aliased state")
	}
}

func TestSummarizerDecay(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	for i := 0; i < 100; i++ {
		if err := s.Observe(vec.Of(5, 5), 2); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Clusters()[0]
	if err := s.Decay(0.5); err != nil {
		t.Fatal(err)
	}
	after := s.Clusters()[0]
	if after.Count != 50 {
		t.Errorf("decayed count = %d, want 50", after.Count)
	}
	if math.Abs(after.Weight-before.Weight/2) > 1e-9 {
		t.Errorf("decayed weight = %v", after.Weight)
	}
	if !after.Centroid().Equal(before.Centroid()) {
		t.Errorf("decay moved centroid: %v -> %v", before.Centroid(), after.Centroid())
	}

	// Decay to extinction drops clusters entirely.
	for i := 0; i < 20; i++ {
		if err := s.Decay(0.01); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("clusters should age out, have %d", s.Len())
	}

	if err := s.Decay(0); err == nil {
		t.Error("factor 0 should fail")
	}
	if err := s.Decay(1.5); err == nil {
		t.Error("factor > 1 should fail")
	}
}

func TestSummarizerReset(t *testing.T) {
	s, _ := NewSummarizer(4, 2)
	if err := s.Observe(vec.Of(1, 1), 1); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Len() != 0 || s.Observed() != 0 {
		t.Error("reset did not clear state")
	}
}

func TestSummarizerSingleClusterAbsorbsDuplicates(t *testing.T) {
	// The paper's rule with zero radius floor: a repeat of the exact same
	// point is at distance 0 <= stddev 0, so it must absorb, not churn.
	s, _ := NewSummarizer(3, 2)
	for i := 0; i < 10; i++ {
		if err := s.Observe(vec.Of(7, 7), 1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Errorf("identical points should form one cluster, got %d", s.Len())
	}
}

func TestEncodeDecodeMicros(t *testing.T) {
	s, _ := NewSummarizer(8, 3)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if err := s.Observe(vec.Of(r.Float64()*100, r.Float64()*100, r.Float64()*10), r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	ms := s.Clusters()
	b, err := EncodeMicros(ms)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMicros(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ms) {
		t.Fatalf("decoded %d clusters, want %d", len(back), len(ms))
	}
	for i := range ms {
		if back[i].Count != ms[i].Count || !back[i].Sum.Equal(ms[i].Sum) {
			t.Fatalf("cluster %d mismatch", i)
		}
	}
	// The paper's size claim: each micro-cluster serializes well under 1KB.
	if perCluster := len(b) / len(ms); perCluster > 1024 {
		t.Errorf("micro-cluster wire size %dB exceeds the paper's 1KB bound", perCluster)
	}
}

func TestDecodeMicrosRejectsCorrupt(t *testing.T) {
	if _, err := DecodeMicros([]byte("not gob")); err == nil {
		t.Error("corrupt bytes should fail")
	}
	bad := []Micro{{Count: -1, Sum: vec.New(2), Sum2: vec.New(2)}}
	b, err := EncodeMicros(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMicros(b); err == nil {
		t.Error("negative count should fail validation")
	}
	inconsistent := []Micro{{Count: 1, Sum: vec.New(2), Sum2: vec.New(3)}}
	b, err = EncodeMicros(inconsistent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMicros(b); err == nil {
		t.Error("dim mismatch should fail validation")
	}
}

func TestEncodeDecodeCoordinates(t *testing.T) {
	ps := []vec.Vec{vec.Of(1, 2), vec.Of(3, 4)}
	b, err := EncodeCoordinates(ps)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCoordinates(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !back[1].Equal(vec.Of(3, 4)) {
		t.Errorf("round trip failed: %v", back)
	}
	if _, err := DecodeCoordinates([]byte{1, 2, 3}); err == nil {
		t.Error("corrupt bytes should fail")
	}
}

// The headline scalability property behind Table II: the summary's wire
// size is bounded by m regardless of how many accesses were folded in,
// while raw coordinates grow linearly.
func TestOnlineSummaryBandwidthBounded(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sizes := make([]int, 0, 3)
	for _, n := range []int{100, 1000, 10000} {
		s, _ := NewSummarizer(10, 3)
		var raw []vec.Vec
		for i := 0; i < n; i++ {
			p := vec.Of(r.Float64()*100, r.Float64()*100, r.Float64()*5)
			if err := s.Observe(p, 1); err != nil {
				t.Fatal(err)
			}
			raw = append(raw, p)
		}
		enc, err := EncodeMicros(s.Clusters())
		if err != nil {
			t.Fatal(err)
		}
		rawEnc, err := EncodeCoordinates(raw)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(enc))
		if n >= 1000 && len(enc)*10 > len(rawEnc) {
			t.Errorf("n=%d: summary %dB not ≪ raw %dB", n, len(enc), len(rawEnc))
		}
	}
	// Summary size must not grow with n.
	if sizes[2] > sizes[0]*2 {
		t.Errorf("summary size grew with n: %v", sizes)
	}
}

// Property: mass (count and weight) is conserved by observe/merge across
// arbitrary streams, and stddev stays finite and non-negative.
func TestQuickSummarizerMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxC := 1 + r.Intn(10)
		s, err := NewSummarizer(maxC, 2, WithRadiusFloor(r.Float64()*5))
		if err != nil {
			return false
		}
		n := 1 + r.Intn(300)
		var wantW float64
		for i := 0; i < n; i++ {
			w := r.Float64() * 3
			wantW += w
			p := vec.Of(r.NormFloat64()*50, r.NormFloat64()*50)
			if s.Observe(p, w) != nil {
				return false
			}
		}
		var count int64
		for _, c := range s.Clusters() {
			if sd := c.StdDev(); sd < 0 || math.IsNaN(sd) || math.IsInf(sd, 0) {
				return false
			}
			count += c.Count
		}
		return count == int64(n) && math.Abs(s.TotalWeight()-wantW) < 1e-6 && s.Len() <= maxC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: merging preserves the exact feature-vector sums, so a merged
// cluster's centroid is the weighted centroid of its parents.
func TestQuickMergePreservesMoments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewMicro(3), NewMicro(3)
		for i := 0; i < 1+r.Intn(20); i++ {
			a.Absorb(vec.Of(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()), 1)
		}
		for i := 0; i < 1+r.Intn(20); i++ {
			b.Absorb(vec.Of(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()), 1)
		}
		m, err := MergeMicro(a, b)
		if err != nil {
			return false
		}
		wantSum := a.Sum.Add(b.Sum)
		wantSum2 := a.Sum2.Add(b.Sum2)
		return m.Sum.Equal(wantSum) && m.Sum2.Equal(wantSum2) &&
			m.Count == a.Count+b.Count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refSummarizer is the summarizer as it stood before it cached centroids
// and radii: every access rederives each cluster's centroid from
// Sum/Count and the nearest one's deviation. It is the reference the
// cached kernel must match bit for bit.
type refSummarizer struct {
	maxClusters, dims int
	radiusFloor       float64
	clusters          []Micro
}

// refDist2ToPoint is the squared centroid-to-point distance computed
// without a centroid vector, as the uncached kernel did.
func refDist2ToPoint(m *Micro, p vec.Vec) float64 {
	var s float64
	if m.Count == 0 {
		for d := range p {
			s += p[d] * p[d]
		}
		return s
	}
	n := float64(m.Count)
	for d := range p {
		diff := m.Sum[d]/n - p[d]
		s += diff * diff
	}
	return s
}

// refCentroidDist2 is the squared centroid-to-centroid distance the
// uncached merge scan computed.
func refCentroidDist2(a, b *Micro) float64 {
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

func (r *refSummarizer) observe(p vec.Vec, weight float64) {
	if len(r.clusters) > 0 {
		best, bestD2 := 0, math.Inf(1)
		for i := range r.clusters {
			if d2 := refDist2ToPoint(&r.clusters[i], p); d2 < bestD2 {
				best, bestD2 = i, d2
			}
		}
		radius := r.clusters[best].StdDev()
		if radius < r.radiusFloor {
			radius = r.radiusFloor
		}
		if math.Sqrt(bestD2) <= radius {
			r.clusters[best].Absorb(p, weight)
			return
		}
	}
	fresh := NewMicro(r.dims)
	fresh.Absorb(p, weight)
	r.clusters = append(r.clusters, fresh)
	if len(r.clusters) <= r.maxClusters {
		return
	}
	bi, bj, bestD2 := 0, 1, math.Inf(1)
	for i := 0; i < len(r.clusters); i++ {
		for j := i + 1; j < len(r.clusters); j++ {
			if d2 := refCentroidDist2(&r.clusters[i], &r.clusters[j]); d2 < bestD2 {
				bi, bj, bestD2 = i, j, d2
			}
		}
	}
	absorbMicro(&r.clusters[bi], &r.clusters[bj])
	last := len(r.clusters) - 1
	r.clusters[bj] = r.clusters[last]
	r.clusters = r.clusters[:last]
}

func (r *refSummarizer) decay(factor float64) {
	kept := r.clusters[:0]
	for i := range r.clusters {
		c := r.clusters[i]
		newCount := int64(math.Round(float64(c.Count) * factor))
		if newCount <= 0 {
			continue
		}
		ratio := float64(newCount) / float64(c.Count)
		c.Count = newCount
		c.Weight *= factor
		c.Sum.ScaleInPlace(ratio)
		c.Sum2.ScaleInPlace(ratio)
		kept = append(kept, c)
	}
	r.clusters = kept
}

// sameMicrosBits reports whether two summaries are identical down to
// the bit patterns of every float.
func sameMicrosBits(a, b []Micro) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if a[i].Count != b[i].Count || !same(a[i].Weight, b[i].Weight) ||
			len(a[i].Sum) != len(b[i].Sum) || len(a[i].Sum2) != len(b[i].Sum2) {
			return false
		}
		for d := range a[i].Sum {
			if !same(a[i].Sum[d], b[i].Sum[d]) || !same(a[i].Sum2[d], b[i].Sum2[d]) {
				return false
			}
		}
	}
	return true
}

// TestQuickSummarizerMatchesReference is the contract of the centroid
// and radius cache: over random streams mixing exact duplicates, Decay,
// Reset and a radius floor, the summary stays bit-identical to the
// uncached reference at every budget and dimensionality.
func TestQuickSummarizerMatchesReference(t *testing.T) {
	for _, m := range []int{1, 2, 8, 16} {
		for _, dims := range []int{1, 2, 3, 5} {
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				floor := 0.0
				if r.Intn(2) == 0 {
					floor = r.Float64() * 4
				}
				s, err := NewSummarizer(m, dims, WithRadiusFloor(floor))
				if err != nil {
					t.Fatal(err)
				}
				ref := &refSummarizer{maxClusters: m, dims: dims, radiusFloor: floor}
				// A few fixed sites make exact duplicates common, as
				// node-positioned clients are.
				sites := make([]vec.Vec, 1+r.Intn(6))
				for i := range sites {
					sites[i] = randomPoint(r, dims)
				}
				for op := 0; op < 400; op++ {
					switch k := r.Intn(100); {
					case k < 2:
						s.Reset()
						ref.clusters = ref.clusters[:0]
					case k < 6:
						f := 0.05 + 0.95*r.Float64()
						if err := s.Decay(f); err != nil {
							t.Fatal(err)
						}
						ref.decay(f)
					default:
						p := randomPoint(r, dims)
						if k < 60 {
							p = sites[r.Intn(len(sites))].Clone()
						}
						w := r.Float64() * 3
						if err := s.Observe(p, w); err != nil {
							t.Fatal(err)
						}
						ref.observe(p, w)
					}
					if op%50 == 49 && !sameMicrosBits(s.Clusters(), ref.clusters) {
						t.Logf("m=%d dims=%d seed=%d: diverged by op %d", m, dims, seed, op)
						return false
					}
				}
				return sameMicrosBits(s.Clusters(), ref.clusters)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatalf("m=%d dims=%d: %v", m, dims, err)
			}
		}
	}
}

func randomPoint(r *rand.Rand, dims int) vec.Vec {
	p := vec.New(dims)
	for d := range p {
		p[d] = r.NormFloat64() * 40
	}
	return p
}

// BenchmarkSummarizerObserve times the ingest kernel on a stream of
// node-positioned clients (exact duplicates of 100 sites in 5 regions,
// Zipf-skewed, budget 8, 3-D coordinates), next to the uncached reference kernel.
func BenchmarkSummarizerObserve(b *testing.B) {
	const m, dims = 8, 3
	r := rand.New(rand.NewSource(1))
	regions := make([]vec.Vec, 5)
	for i := range regions {
		regions[i] = randomPoint(r, dims)
	}
	sites := make([]vec.Vec, 100)
	for i := range sites {
		sites[i] = regions[i%len(regions)].Add(randomPoint(r, dims).Scale(0.1))
	}
	// Zipf-skewed site popularity, as a few busy nodes dominate real
	// access streams.
	zipf := rand.NewZipf(r, 1.2, 1, uint64(len(sites)-1))
	stream := make([]vec.Vec, 4096)
	for i := range stream {
		stream[i] = sites[zipf.Uint64()]
	}
	b.Run("cached", func(b *testing.B) {
		s, err := NewSummarizer(m, dims)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Observe(stream[i%len(stream)], 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		ref := &refSummarizer{maxClusters: m, dims: dims}
		for i := 0; i < b.N; i++ {
			ref.observe(stream[i%len(stream)], 1)
		}
	})
}
