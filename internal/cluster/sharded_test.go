package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/georep/georep/internal/vec"
)

var shardCounts = []int{1, 2, 4, 8, 16}

// genAccesses returns a deterministic access sequence: client ids,
// positions per client, and weights, drawn from a few loose regional
// blobs so summaries have real structure.
func genAccesses(seed int64, clients, accesses, dims int) ([]int, []vec.Vec, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.Vec, clients)
	for c := range pos {
		center := float64(c%5) * 40
		p := vec.New(dims)
		for d := range p {
			p[d] = center + rng.NormFloat64()*3
		}
		pos[c] = p
	}
	ids := make([]int, accesses)
	ws := make([]float64, accesses)
	for i := range ids {
		ids[i] = rng.Intn(clients)
		ws[i] = 0.5 + rng.Float64()
	}
	return ids, pos, ws
}

// observedTotals folds a summary into (count, weight, global weighted
// coordinate sum), the additive invariants sharding must preserve.
func observedTotals(clusters []Micro, dims int) (int64, float64, vec.Vec) {
	var count int64
	var weight float64
	sum := vec.New(dims)
	for i := range clusters {
		count += clusters[i].Count
		weight += clusters[i].Weight
		sum.AddInPlace(clusters[i].Sum)
	}
	return count, weight, sum
}

// TestShardedTotalsMatchUnsharded is the core equivalence property:
// for any access sequence and any shard count, the sharded summary
// preserves total access count exactly and total weight and the global
// coordinate sum to floating-point tolerance (the association order of
// the additions is the only thing sharding changes).
func TestShardedTotalsMatchUnsharded(t *testing.T) {
	const dims, budget = 3, 12
	prop := func(seed int64) bool {
		ids, pos, ws := genAccesses(seed, 50, 400, dims)
		base, err := NewSummarizer(budget, dims)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ids {
			if err := base.Observe(pos[c], ws[i]); err != nil {
				t.Fatal(err)
			}
		}
		wantCount, wantWeight, wantSum := observedTotals(base.Clusters(), dims)

		for _, n := range shardCounts {
			sh, err := NewSharded(n, budget, dims)
			if err != nil {
				t.Fatal(err)
			}
			if err := sh.ObserveBatch(ids, pos, ws); err != nil {
				t.Fatal(err)
			}
			sum := sh.Summary()
			if len(sum) > budget {
				t.Fatalf("shards=%d: summary has %d clusters, budget %d", n, len(sum), budget)
			}
			gotCount, gotWeight, gotSum := observedTotals(sum, dims)
			if gotCount != wantCount {
				t.Logf("shards=%d: count %d != %d", n, gotCount, wantCount)
				return false
			}
			if !closeRel(gotWeight, wantWeight, 1e-9) {
				t.Logf("shards=%d: weight %v != %v", n, gotWeight, wantWeight)
				return false
			}
			for d := 0; d < dims; d++ {
				if !closeRel(gotSum[d], wantSum[d], 1e-9) {
					t.Logf("shards=%d: sum[%d] %v != %v", n, d, gotSum[d], wantSum[d])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func closeRel(a, b, eps float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= eps*scale
}

// TestShardedCentroidsMatchUnsharded checks summary geometry: on
// well-separated blobs every shard count recovers the same blob centers
// to within a fraction of the blob radius.
func TestShardedCentroidsMatchUnsharded(t *testing.T) {
	const dims, budget, blobs = 3, 4, 4
	rng := rand.New(rand.NewSource(7))
	centers := make([]vec.Vec, blobs)
	for b := range centers {
		centers[b] = vec.Of(float64(b)*100, float64((b*37)%3)*100, float64((b*53)%5)*50)
	}
	const accesses = 4000
	ids := make([]int, accesses)
	pts := make([]vec.Vec, accesses)
	for i := range ids {
		b := rng.Intn(blobs)
		p := vec.New(dims)
		for d := range p {
			p[d] = centers[b][d] + rng.NormFloat64()
		}
		ids[i] = i
		pts[i] = p
	}

	check := func(name string, clusters []Micro) {
		if len(clusters) != blobs {
			t.Fatalf("%s: %d clusters, want %d", name, len(clusters), blobs)
		}
		covered := make([]bool, blobs)
		for i := range clusters {
			c := clusters[i].Centroid()
			best, bestD := -1, math.Inf(1)
			for b := range centers {
				if d := c.Dist(centers[b]); d < bestD {
					best, bestD = b, d
				}
			}
			if bestD > 2.0 {
				t.Fatalf("%s: centroid %v is %.2f from nearest blob center", name, c, bestD)
			}
			covered[best] = true
		}
		for b, ok := range covered {
			if !ok {
				t.Fatalf("%s: blob %d has no centroid", name, b)
			}
		}
	}

	base, err := NewSummarizer(budget, dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if err := base.Observe(pts[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	check("unsharded", base.Clusters())

	for _, n := range shardCounts {
		sh, err := NewSharded(n, budget, dims)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.ObserveBatch(ids, pts, nil); err != nil {
			t.Fatal(err)
		}
		check("sharded", sh.Summary())
	}
}

// TestShardOf proves the hash stays in range and respects the partition:
// every client maps to exactly one shard for any power-of-two count.
func TestShardOf(t *testing.T) {
	for _, n := range shardCounts {
		sh, err := NewSharded(n, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		prop := func(client int) bool {
			i := sh.ShardOf(client)
			return i >= 0 && i < n
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
	}
}

func TestNewShardedRejectsBadCounts(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 12} {
		if _, err := NewSharded(n, 4, 2); err == nil {
			t.Fatalf("shards=%d: want error", n)
		}
	}
}

// TestShardedConcurrentStress hammers ObserveBatch from several
// goroutines while another cycles Summary/Decay/Reset. Run under -race
// this proves the locking discipline; the final summary must still
// respect the budget and carry finite mass. The second round's batches
// are large enough to fan out, so callers also share the worker pool
// and the partition scratch.
func TestShardedConcurrentStress(t *testing.T) {
	stressSharded(t, 128)
	withProcs(max(runtime.GOMAXPROCS(0), 4), func() { stressSharded(t, 2*fanOutGrain) })
}

func stressSharded(t *testing.T, perWriter int) {
	const dims, budget, writers = 3, 8, 4
	sh, err := NewSharded(8, budget, dims)
	if err != nil {
		t.Fatal(err)
	}
	ids, pos, ws := genAccesses(42, 200, writers*perWriter, dims)

	var wg sync.WaitGroup
	var batches atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*perWriter, (w+1)*perWriter
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := sh.ObserveBatch(ids[lo:hi], pos, ws[lo:hi]); err != nil {
					t.Error(err)
					return
				}
				batches.Add(1)
			}
		}(w)
	}
	// Keep the maintenance going until the writers have overlapped it.
	for i := 0; (i < 50 || batches.Load() < 50) && !t.Failed(); i++ {
		if sum := sh.Summary(); len(sum) > budget {
			t.Errorf("summary has %d clusters, budget %d", len(sum), budget)
			break
		}
		if err := sh.Decay(0.9); err != nil {
			t.Error(err)
			break
		}
		if i%10 == 9 {
			sh.Reset()
		}
	}
	close(stop)
	wg.Wait()

	sum := sh.Summary()
	if len(sum) > budget {
		t.Fatalf("final summary has %d clusters, budget %d", len(sum), budget)
	}
	for i := range sum {
		if !sum[i].Sum.IsFinite() || math.IsNaN(sum[i].Weight) {
			t.Fatalf("non-finite cluster %+v", sum[i])
		}
	}
}

// TestObserveSteadyStateAllocs pins the zero-allocation claim at the
// unit level: once a summarizer is at capacity, Observe never allocates,
// including on the new-cluster-then-merge path.
func TestObserveSteadyStateAllocs(t *testing.T) {
	const dims, budget = 3, 8
	s, err := NewSummarizer(budget, dims)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]vec.Vec, 256)
	for i := range pts {
		p := vec.New(dims)
		for d := range p {
			p[d] = rng.NormFloat64() * 50
		}
		pts[i] = p
	}
	for i := 0; i < 4*budget; i++ {
		if err := s.Observe(pts[i%len(pts)], 1); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Observe(pts[i%len(pts)], 1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Observe allocates %.1f/op, want 0", allocs)
	}
}

// TestShardedObserveBatchAllocs proves the batched sharded path is also
// allocation-free in steady state: serially, and fanned out to pool
// workers, which AllocsPerRun cannot reach because it pins GOMAXPROCS
// to 1. Under -race too.
func TestShardedObserveBatchAllocs(t *testing.T) {
	const dims, budget = 3, 8
	sh, err := NewSharded(4, budget, dims)
	if err != nil {
		t.Fatal(err)
	}
	ids, pos, ws := genAccesses(9, 100, 256, dims)
	for i := 0; i < 4; i++ {
		if err := sh.ObserveBatch(ids, pos, ws); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sh.ObserveBatch(ids, pos, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state ObserveBatch allocates %.1f/op, want 0", allocs)
	}

	const calls = 200
	ids, pos, ws = genAccesses(9, 500, 4*fanOutGrain, dims)
	withProcs(4, func() {
		if fanOutHelpers(len(ids), sh.Shards()) == 0 {
			t.Fatal("batch does not fan out")
		}
		for i := 0; i < 8; i++ {
			if err := sh.ObserveBatch(ids, pos, ws); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := sh.ObserveBatch(ids, pos, ws); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// Whole allocations per call, as AllocsPerRun counts them.
		if per := (after.Mallocs - before.Mallocs) / calls; per > 0 {
			t.Fatalf("fanned-out ObserveBatch allocates %d/op, want 0", per)
		}
	})
}

// BenchmarkShardedObserveBatch times batched sharded ingest at a
// stream-like shape: 1024-access batches from 2000 clients on 100 sites
// over 8 shards. Run with -cpu 1,2,... to see the fan-out.
func BenchmarkShardedObserveBatch(b *testing.B) {
	const dims, budget, shards, batch = 3, 8, 8, 1024
	ids, pos, ws := genAccesses(3, 2000, 64*batch, dims)
	sh, err := NewSharded(shards, budget, dims)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i % 64) * batch
		if err := sh.ObserveBatch(ids[lo:lo+batch], pos, ws[lo:lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/access")
}

// withProcs runs f at the given GOMAXPROCS, restoring it afterwards.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// fanOutStream is six batches' worth of seeded accesses in which a
// third of the clients share 5 sites, so exact duplicates are common.
func fanOutStream(batch int) ([]int, []vec.Vec, []float64) {
	ids, pos, ws := genAccesses(17, 300, 6*batch, 3)
	for c := range pos {
		if c%3 == 0 {
			pos[c] = pos[c%15]
		}
	}
	return ids, pos, ws
}

// shardedRun folds fanOutStream into a fresh 8-shard set in batches of
// the given size, decaying halfway, and returns its summary.
func shardedRun(t *testing.T, batch int) []Micro {
	t.Helper()
	ids, pos, ws := fanOutStream(batch)
	sh, err := NewSharded(8, 8, 3, WithRadiusFloor(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(ids); lo += batch {
		if lo == 3*batch {
			if err := sh.Decay(0.7); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.ObserveBatch(ids[lo:lo+batch], pos, ws[lo:lo+batch]); err != nil {
			t.Fatal(err)
		}
	}
	return sh.Summary()
}

// TestShardedFanOutMatchesSerial is the fan-out's contract: whether a
// batch is drained by the caller alone or together with pool workers,
// every shard sees its accesses in batch order, so the summary is
// bit-identical at any GOMAXPROCS, on both sides of the fan-out
// threshold. The serial reference folds each access through the
// one-access Observe.
func TestShardedFanOutMatchesSerial(t *testing.T) {
	for _, batch := range []int{fanOutGrain - 1, 2 * fanOutGrain, 8*fanOutGrain + 37} {
		ids, pos, ws := fanOutStream(batch)
		ref, err := NewSharded(8, 8, 3, WithRadiusFloor(0.5))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ids {
			if i == 3*batch {
				if err := ref.Decay(0.7); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Observe(c, pos[c], ws[i]); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Summary()
		for _, procs := range []int{1, 2, 8} {
			withProcs(procs, func() {
				fanned := fanOutHelpers(batch, 8) > 0
				if want := procs > 1 && batch >= 2*fanOutGrain; fanned != want {
					t.Fatalf("procs=%d batch=%d: fan-out %v, want %v", procs, batch, fanned, want)
				}
				if got := shardedRun(t, batch); !sameMicrosBits(got, want) {
					t.Fatalf("procs=%d batch=%d (fan-out %v): summary differs from serial fold", procs, batch, fanned)
				}
			})
		}
	}
}
