package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/georep/georep/internal/vec"
)

// Sharded partitions micro-cluster maintenance across a power-of-two
// number of independently locked shards, keyed by client hash. Each shard
// owns a full-budget Summarizer, and the ingest hot path stays
// allocation-free. Concurrent Observe calls on different shards never
// contend. ObserveBatch calls do not scale with their callers: they take
// turns on one partition scratch, and a batch's parallelism comes only
// from fanning its shards out across cores, which batches under 512
// accesses never do. The shards are reconciled only at epoch summary
// time, when Summary merges all per-shard clusters down to the
// configured budget.
//
// The merge is lossless in the additive features: total Count, Weight,
// and coordinate Sum (hence the global weighted centroid) are exactly
// preserved for any shard count, because sharding only changes how
// observations are partitioned, never drops or double-counts them.
type Sharded struct {
	shards      []ingestShard
	mask        uint32
	maxClusters int
	dims        int
	// batchMu serializes ObserveBatch calls over the partition scratch
	// in batch.
	batchMu sync.Mutex
	batch   shardBatch
}

// ingestShard pads each shard's lock and summarizer apart from its
// neighbours' so goroutines ingesting into neighbouring shards do not
// false-share cache lines.
type ingestShard struct {
	mu  sync.Mutex
	sum Summarizer
	_   [64]byte
}

// shardBatch is one ObserveBatch call's accesses partitioned by shard:
// shard i owns order[bounds[i]:bounds[i+1]], indices into the batch in
// batch order. The caller and any fan-out workers claim shards through
// next, so each shard is drained by exactly one goroutine, in batch
// order, whichever goroutine that is. The scratch lives on the Sharded
// and is reused by every call, which keeps the parallel path free of
// allocations.
type shardBatch struct {
	shards  []ingestShard
	dims    int
	clients []int
	pos     []vec.Vec
	weights []float64
	order   []int
	bounds  []int
	next    atomic.Int64
	done    sync.WaitGroup
}

// NewSharded returns a sharded micro-cluster set with the given
// power-of-two shard count. Each shard holds up to maxClusters clusters
// of the given dimensionality; Summary merges them back down to
// maxClusters. shards == 1 degenerates to a locked Summarizer.
func NewSharded(shards, maxClusters, dims int, opts ...SummarizerOption) (*Sharded, error) {
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("cluster: shard count %d must be a positive power of two", shards)
	}
	if err := checkShape(maxClusters, dims); err != nil {
		return nil, err
	}
	s := &Sharded{
		shards:      make([]ingestShard, shards),
		mask:        uint32(shards - 1),
		maxClusters: maxClusters,
		dims:        dims,
	}
	// One arena backs every shard's summarizer, with a cache line of
	// floats before, between and after them, so no two shards' ingest
	// state shares a line either.
	const gap = 8
	n := arenaLen(maxClusters, dims)
	arena := make([]float64, gap+shards*(n+gap))
	for i := range s.shards {
		lo := gap + i*(n+gap)
		if err := s.shards[i].sum.init(maxClusters, dims, arena[lo:lo+n:lo+n], opts); err != nil {
			return nil, err
		}
	}
	s.batch.shards, s.batch.dims = s.shards, dims
	s.batch.bounds = make([]int, shards+1)
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// ShardOf returns the shard index a client hashes to. Fibonacci hashing
// on the client id spreads sequential ids uniformly; taking bits 16..31
// keeps the map stable across shard counts that share a prefix.
func (s *Sharded) ShardOf(client int) int {
	return int((uint32(client) * 2654435761 >> 16) & s.mask)
}

// Observe folds one access by client at coordinate p into the client's
// shard. Safe for concurrent use with other Observe/ObserveBatch calls.
func (s *Sharded) Observe(client int, p vec.Vec, weight float64) error {
	sh := &s.shards[s.ShardOf(client)]
	sh.mu.Lock()
	err := sh.sum.Observe(p, weight)
	sh.mu.Unlock()
	return err
}

// ObserveBatch folds a batch of accesses into their shards: clients[i]
// accessed with weights[i] from position pos[clients[i]]. A nil weights
// slice means unit weight per access. Every access is checked before
// any shard is touched, so a batch with one bad access folds nothing
// and returns the error.
//
// One pass buckets the batch by shard; each shard is then locked once
// and fed its accesses in batch order. Large batches are drained by the
// caller together with idle workers of a package-level pool (see
// fanOutHelpers), a shard to a goroutine at a time, so the summary is
// the same at any GOMAXPROCS. The call allocates nothing in steady
// state and is safe for concurrent use with other writers and with
// Summary/Decay/Reset, but concurrent ObserveBatch calls are serialized
// whole, one batch at a time.
func (s *Sharded) ObserveBatch(clients []int, pos []vec.Vec, weights []float64) error {
	if err := checkWeights(clients, weights); err != nil {
		return err
	}
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	b := &s.batch
	if err := b.partition(s, clients, pos, weights); err != nil {
		return err
	}
	b.clients, b.pos, b.weights = clients, pos, weights
	b.next.Store(0)
	for n := fanOutHelpers(len(clients), len(s.shards)); n > 0; n-- {
		b.done.Add(1)
		select {
		case fanOutJobs <- b:
			continue
		default:
		}
		b.done.Done() // the queue is full: the caller carries on alone
		break
	}
	b.drain()
	b.done.Wait()
	// Drop the caller's slices so the scratch does not pin them.
	b.clients, b.pos, b.weights = nil, nil, nil
	return nil
}

// partition checks every access of the batch and buckets the batch by
// shard with a counting sort: count per shard, turn the counts into
// bucket ends, then place indices from the back, which leaves each
// bucket in batch order and bounds[i] at bucket i's start.
func (b *shardBatch) partition(s *Sharded, clients []int, pos []vec.Vec, weights []float64) error {
	bounds := b.bounds
	clear(bounds)
	for i, c := range clients {
		if err := checkAccess(c, pos, weightAt(weights, i), b.dims); err != nil {
			return err
		}
		bounds[s.ShardOf(c)]++
	}
	for i := 1; i < len(bounds); i++ {
		bounds[i] += bounds[i-1]
	}
	if cap(b.order) < len(clients) {
		b.order = make([]int, len(clients))
	}
	order := b.order[:len(clients)]
	for i := len(clients) - 1; i >= 0; i-- {
		sh := s.ShardOf(clients[i])
		bounds[sh]--
		order[bounds[sh]] = i
	}
	return nil
}

// drain claims unclaimed shards and folds each one's accesses under its
// lock until every shard is claimed.
func (b *shardBatch) drain() {
	for {
		i := int(b.next.Add(1) - 1)
		if i >= len(b.shards) {
			return
		}
		lo, hi := b.bounds[i], b.bounds[i+1]
		if lo == hi {
			continue
		}
		sh := &b.shards[i]
		sh.mu.Lock()
		for _, k := range b.order[lo:hi] {
			sh.sum.observe(b.pos[b.clients[k]], weightAt(b.weights, k))
		}
		sh.mu.Unlock()
	}
}

// fanOutGrain is the fewest accesses worth handing one more goroutine:
// waking a parked worker costs microseconds, which a few hundred
// accesses at ~100 ns each repay.
const fanOutGrain = 256

// fanOutHelpers returns how many pool workers should help drain a batch
// of n accesses over the given shard count: one goroutine per fanOutGrain
// accesses, at most one per shard and one per GOMAXPROCS, the caller
// counting as the first. It starts pool workers up to that number.
func fanOutHelpers(n, shards int) int {
	helpers := min(runtime.GOMAXPROCS(0), shards, n/fanOutGrain) - 1
	if helpers <= 0 {
		return 0
	}
	if int(fanOutWorkers.Load()) < helpers {
		fanOutMu.Lock()
		for int(fanOutWorkers.Load()) < helpers {
			go fanOutWorker()
			fanOutWorkers.Add(1)
		}
		fanOutMu.Unlock()
	}
	return helpers
}

// The fan-out pool. Workers live for the life of the process and take
// batches from fanOutJobs. A batch is queued once per helper it wants,
// and its caller drains shards meanwhile, so a helper that arrives late
// finds fewer shards, or none, and just signs off. The queue holds the
// helpers of several concurrent batches; when it is full the caller
// drains the rest itself. The pool only grows, up to the largest helper
// count a batch has asked for.
var (
	fanOutJobs    = make(chan *shardBatch, 64)
	fanOutMu      sync.Mutex
	fanOutWorkers atomic.Int32
)

// fanOutSpins is how many times an idle worker polls for the next batch,
// yielding its processor between polls, before it parks. Ingest batches
// tend to arrive back to back, and a worker woken from parking starts
// tens of microseconds late — most of a batch's drain.
const fanOutSpins = 2000

func fanOutWorker() {
	for b := range fanOutJobs {
		b.drain()
		b.done.Done()
		for spin := 0; spin < fanOutSpins; spin++ {
			select {
			case b = <-fanOutJobs:
				b.drain()
				b.done.Done()
				spin = 0
			default:
				runtime.Gosched()
			}
		}
	}
}

// Summary returns the merged micro-cluster summary across all shards,
// reduced to at most the configured budget. Shards are folded in index
// order and merged down greedily after each fold, keeping the reduction
// O(shards · budget³) instead of quadratic in the total cluster count.
// The result is freshly allocated; ingest may continue concurrently.
func (s *Sharded) Summary() []Micro {
	out := make([]Micro, 0, s.maxClusters+s.maxClusters)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.sum.clusters {
			out = append(out, sh.sum.clusters[j].Clone())
		}
		sh.mu.Unlock()
		out = MergeDown(out, s.maxClusters)
	}
	return out
}

// MergeDown greedily merges the closest centroid pair until at most
// budget clusters remain, mutating and returning clusters. Additive
// features (Count, Weight, Sum, Sum2) are exactly conserved. The order
// of merges is deterministic for a given input order.
func MergeDown(clusters []Micro, budget int) []Micro {
	if budget < 1 {
		budget = 1
	}
	for len(clusters) > budget {
		bi, bj, bestD2 := 0, 1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d2 := centroidDist2(&clusters[i], &clusters[j]); d2 < bestD2 {
					bi, bj, bestD2 = i, j, d2
				}
			}
		}
		absorbMicro(&clusters[bi], &clusters[bj])
		last := len(clusters) - 1
		clusters[bj] = clusters[last]
		clusters[last] = Micro{}
		clusters = clusters[:last]
	}
	return clusters
}

// Decay ages every shard's clusters by factor in (0, 1].
func (s *Sharded) Decay(factor float64) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.sum.Decay(factor)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Reset discards all shard state, keeping configuration and buffers.
func (s *Sharded) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.sum.Reset()
		sh.mu.Unlock()
	}
}

// Observed returns the total observation count across shards.
func (s *Sharded) Observed() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.sum.Observed()
		sh.mu.Unlock()
	}
	return n
}

// TotalWeight returns the summed cluster weight across shards.
func (s *Sharded) TotalWeight() float64 {
	var w float64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		w += sh.sum.TotalWeight()
		sh.mu.Unlock()
	}
	return w
}

// Len returns the current total micro-cluster count across shards.
func (s *Sharded) Len() int {
	var n int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.sum.Len()
		sh.mu.Unlock()
	}
	return n
}
