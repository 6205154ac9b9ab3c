// Package replica implements the runtime side of the paper's system: the
// per-replica access summarizers (§III-B), the coordinator that
// periodically collects summaries and decides new replica locations
// (§III-C, Algorithm 1), the migration-benefit threshold, and the
// dynamic adjustment of the replication degree k.
package replica

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/coord"
	"github.com/georep/georep/internal/vec"
)

// Server is the state a data center holding one replica keeps: a bounded
// micro-cluster summary of the clients that accessed it recently.
//
// Two recency mechanisms are available. The default (NewServer) applies
// exponential decay at every epoch boundary — cheap, approximate. The
// windowed variant (NewWindowedServer) keeps CluStream pyramidal
// snapshots and exports exactly the accesses of the last W epochs —
// slightly costlier, exact.
type Server struct {
	node     int
	sum      *cluster.Summarizer
	win      *cluster.WindowedSummarizer
	shards   *cluster.Sharded
	winEpoch float64 // virtual clock: one unit per epoch (windowed mode)
	horizon  float64 // window length in epochs (windowed mode)
	seq      int     // round-robin shard key for id-less single records
	// accesses is atomic: sharded servers accept RecordBatch from
	// concurrent goroutines.
	accesses atomic.Int64
}

// NewServer creates the summarizer state for a replica hosted at the
// given node with a budget of m micro-clusters over dims-dimensional
// client coordinates, using exponential-decay recency.
func NewServer(node, m, dims int) (*Server, error) {
	s, err := cluster.NewSummarizer(m, dims)
	if err != nil {
		return nil, err
	}
	return &Server{node: node, sum: s}, nil
}

// NewWindowedServer creates a server whose summaries cover exactly the
// last windowEpochs epochs via CluStream pyramidal snapshots.
func NewWindowedServer(node, m, dims, windowEpochs int) (*Server, error) {
	if windowEpochs <= 0 {
		return nil, fmt.Errorf("replica: windowEpochs must be positive, got %d", windowEpochs)
	}
	w, err := cluster.NewWindowedSummarizer(m, dims)
	if err != nil {
		return nil, err
	}
	return &Server{node: node, win: w, horizon: float64(windowEpochs)}, nil
}

// NewShardedServer creates a server whose summarizer is partitioned
// across a power-of-two number of client-hash shards (see
// cluster.Sharded): batched ingest locks only the touched shards, and
// the shards are merged back down to the m-cluster budget at export
// time. Recency uses exponential decay, as with NewServer.
func NewShardedServer(node, shards, m, dims int) (*Server, error) {
	sh, err := cluster.NewSharded(shards, m, dims)
	if err != nil {
		return nil, err
	}
	return &Server{node: node, shards: sh}, nil
}

// reset empties a decay-mode server and moves it to node, returning it.
func (s *Server) reset(node int) *Server {
	s.sum.Reset()
	s.node = node
	s.seq = 0
	s.accesses.Store(0)
	return s
}

// Node returns the data-center node hosting this replica.
func (s *Server) Node() int { return s.node }

// Record folds one client access into the summary. weight is the data
// volume exchanged (paper: "the overall amount of data exchanged with
// the users").
func (s *Server) Record(clientPos vec.Vec, weight float64) error {
	var err error
	switch {
	case s.win != nil:
		err = s.win.Observe(clientPos, weight)
	case s.shards != nil:
		// The id-less single-record path spreads observations round-robin;
		// any partition preserves the summary's additive totals.
		err = s.shards.Observe(s.seq, clientPos, weight)
		s.seq++
	default:
		err = s.sum.Observe(clientPos, weight)
	}
	if err == nil {
		s.accesses.Add(1)
	}
	return err
}

// RecordBatch folds a batch of accesses into the summary: clients[i]
// accessed with weights[i], reading positions from pos[clients[i]]. A
// nil weights slice means unit weights. Every access is checked before
// any is folded, so a rejected batch leaves the summary and the access
// count untouched in every mode. On a sharded server this is the
// lock-once-per-shard hot path; no mode allocates in steady state.
func (s *Server) RecordBatch(clients []int, pos []vec.Vec, weights []float64) error {
	var err error
	switch {
	case s.win != nil:
		err = s.win.ObserveBatch(clients, pos, weights)
	case s.shards != nil:
		err = s.shards.ObserveBatch(clients, pos, weights)
	default:
		err = s.sum.ObserveBatch(clients, pos, weights)
	}
	if err != nil {
		return err
	}
	s.accesses.Add(int64(len(clients)))
	return nil
}

// Export returns a copy of the recency-scoped micro-clusters — what the
// server ships to the coordinator.
func (s *Server) Export() ([]cluster.Micro, error) {
	return s.ExportInto(nil)
}

// ExportInto is Export reusing dst's backing (micro structs and their
// vectors) where possible. The windowed and sharded paths still build
// fresh summaries — their merge passes need owned storage — but the
// plain path, one summarizer per object as a multi-object fleet runs,
// re-allocates nothing in steady state.
func (s *Server) ExportInto(dst []cluster.Micro) ([]cluster.Micro, error) {
	if s.win != nil {
		return s.win.Window(s.winEpoch, s.horizon)
	}
	if s.shards != nil {
		return s.shards.Summary(), nil
	}
	return s.sum.ClustersInto(dst), nil
}

// ExportEncoded returns the gob wire form of the summary, whose length is
// the per-epoch bandwidth cost of the online approach.
func (s *Server) ExportEncoded() ([]byte, error) {
	ms, err := s.Export()
	if err != nil {
		return nil, err
	}
	return cluster.EncodeMicros(ms)
}

// Accesses returns the number of accesses recorded since creation.
func (s *Server) Accesses() int64 { return s.accesses.Load() }

// Decay marks an epoch boundary. In decay mode the summary ages by
// factor (1 keeps everything, smaller forgets faster); in windowed mode
// a snapshot is taken and the virtual clock advances, the factor is
// ignored.
func (s *Server) Decay(factor float64) error {
	if s.win != nil {
		if err := s.win.Snapshot(s.winEpoch); err != nil {
			return err
		}
		s.winEpoch++
		return nil
	}
	if s.shards != nil {
		return s.shards.Decay(factor)
	}
	return s.sum.Decay(factor)
}

// MigrationPolicy gates replica migration on expected benefit (§III-C:
// "our approach carries out data migration only when the gain in the
// quality of service compared to the migration cost is higher than a
// certain threshold").
type MigrationPolicy struct {
	// MinRelativeGain is the minimum fractional reduction in estimated
	// mean delay required to migrate, e.g. 0.05 for 5%.
	MinRelativeGain float64
	// CostPerByte is the monetary cost of moving one byte between data
	// centers (the paper cites ~$0.1/GB). Zero disables the economic
	// test.
	CostPerByte float64
	// GainPerMsAccess is the monetary value of shaving one millisecond
	// off one access. Only meaningful with CostPerByte > 0.
	GainPerMsAccess float64
	// ObjectBytes is the replicated object's size, charged once per
	// newly created replica. Only meaningful with CostPerByte > 0.
	ObjectBytes float64
}

// Validate checks the policy.
func (p MigrationPolicy) Validate() error {
	if p.MinRelativeGain < 0 || p.MinRelativeGain >= 1 {
		return fmt.Errorf("replica: MinRelativeGain %v out of [0,1)", p.MinRelativeGain)
	}
	if p.CostPerByte < 0 || p.GainPerMsAccess < 0 || p.ObjectBytes < 0 {
		return fmt.Errorf("replica: negative economics in policy %+v", p)
	}
	if p.CostPerByte > 0 && (p.GainPerMsAccess == 0 || p.ObjectBytes == 0) {
		return fmt.Errorf("replica: CostPerByte set but GainPerMsAccess/ObjectBytes missing")
	}
	return nil
}

// KPolicy adapts the replication degree to demand (§III-C: "adjustment is
// needed when it is desirable to create more replicas as the demand of an
// object increases or to discard replicas as the demand decreases").
type KPolicy struct {
	// Min and Max bound k. Max also must not exceed the candidate count.
	Min, Max int
	// GrowAbove adds a replica when epoch demand (total access weight)
	// exceeds this; zero disables growth.
	GrowAbove float64
	// ShrinkBelow removes a replica when epoch demand falls below this;
	// zero disables shrinking.
	ShrinkBelow float64
}

// Validate checks the policy against the initial k.
func (p KPolicy) Validate(k int) error {
	if p.Min <= 0 || p.Max < p.Min {
		return fmt.Errorf("replica: invalid k range [%d,%d]", p.Min, p.Max)
	}
	if k < p.Min || k > p.Max {
		return fmt.Errorf("replica: initial k=%d outside [%d,%d]", k, p.Min, p.Max)
	}
	if p.GrowAbove < 0 || p.ShrinkBelow < 0 {
		return fmt.Errorf("replica: negative demand thresholds")
	}
	if p.GrowAbove > 0 && p.ShrinkBelow > p.GrowAbove {
		return fmt.Errorf("replica: ShrinkBelow %v exceeds GrowAbove %v", p.ShrinkBelow, p.GrowAbove)
	}
	return nil
}

// Decision reports what the coordinator concluded for one epoch.
type Decision struct {
	// NewReplicas is the placement after the decision (unchanged when
	// Migrate is false).
	NewReplicas []int
	// Proposed is the placement macro-clustering suggested, whether or
	// not it was adopted.
	Proposed []int
	// Migrate reports whether the proposal was adopted.
	Migrate bool
	// K is the replication degree after demand adaptation.
	K int
	// EstimatedOldMs and EstimatedNewMs are summary-weighted mean delays
	// of the old and proposed placements.
	EstimatedOldMs float64
	EstimatedNewMs float64
	// MovedReplicas is how many locations the proposal changes.
	MovedReplicas int
	// CollectedBytes is the wire size of the micro-cluster summaries the
	// coordinator consumed this epoch.
	CollectedBytes int
	// Degraded reports that at least one replica's summary could not be
	// collected this epoch and a stale (or no) view was used instead.
	Degraded bool
	// MissingSummaries lists the replicas that were unreachable.
	MissingSummaries []int
	// QuorumOK reports whether enough fresh summaries arrived to permit
	// k adaptation and migration (see Config.Quorum). When false the
	// placement is guaranteed unchanged.
	QuorumOK bool
	// Held reports that an otherwise-approved migration was not adopted
	// because Config.HoldMigrations answered true — the SLO error
	// budget is exhausted and optional data movement is deferred.
	Held bool
	// Displaced is how many replicas of this epoch's placement were
	// pushed off their preferred data center by per-DC capacity
	// accounting (multi-object service only; zero otherwise).
	Displaced int
	// Leader is the write-path leader DC of the adopted placement, or
	// -1 when the write path is disabled (Config.WriteFraction == 0).
	Leader int
	// WriteCostOldMs and WriteCostNewMs are the write-path costs
	// (demand-weighted client→leader delay plus leader→follower fanout)
	// of the old and proposed placements. Zero when the write path is
	// disabled. The migration gate compares the blended read/write
	// costs, not EstimatedOldMs/NewMs alone, when WriteFraction > 0.
	WriteCostOldMs float64
	WriteCostNewMs float64
}

// EstimateMeanDelay returns the access-weighted mean predicted delay of
// serving the summarized populations from the given replica set: each
// micro-cluster is served by the replica closest to its centroid in
// coordinate space. It is the objective the coordinator optimizes,
// computable from summaries alone.
func EstimateMeanDelay(micros []cluster.Micro, replicas []int, coords []coord.Coordinate) (float64, error) {
	var cent vec.Vec
	return estimateMeanDelayScratch(&cent, micros, replicas, coords)
}

// estimateMeanDelayScratch is EstimateMeanDelay computing each centroid
// into a caller-owned scratch vector: the estimate runs twice per epoch
// per object, and Centroid's per-micro allocation was a measurable slice
// of a fleet epoch.
func estimateMeanDelayScratch(cent *vec.Vec, micros []cluster.Micro, replicas []int, coords []coord.Coordinate) (float64, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("replica: no replicas to estimate against")
	}
	var total, mass float64
	for i := range micros {
		w := micros[i].Weight
		if w == 0 {
			w = float64(micros[i].Count)
		}
		if w == 0 {
			continue
		}
		if d := micros[i].Sum.Dim(); len(*cent) != d {
			*cent = vec.New(d)
		}
		micros[i].CentroidInto(*cent)
		c := *cent
		best := math.Inf(1)
		for _, rep := range replicas {
			if rep < 0 || rep >= len(coords) {
				return 0, fmt.Errorf("replica: replica node %d out of coordinate range", rep)
			}
			// Predicted serving latency includes the replica's height
			// (access-link delay); the clients' own heights are unknown
			// from the summary but shift every placement equally.
			if d := coords[rep].Pos.Dist(c) + coords[rep].Height; d < best {
				best = d
			}
		}
		total += w * best
		mass += w
	}
	if mass == 0 {
		return 0, nil
	}
	return total / mass, nil
}

// ProposePlacement runs Algorithm 1: weighted k-means over the collected
// micro-clusters, then nearest distinct candidate per macro centroid
// (heaviest first), topping up from the global centroid if needed. It is
// exported for coordinators that collect summaries over the network (the
// georepd daemon) rather than through a Manager.
func ProposePlacement(r *rand.Rand, micros []cluster.Micro, k int, candidates []int, coords []coord.Coordinate) ([]int, error) {
	return ProposePlacementOpt(r, micros, k, candidates, coords, cluster.Options{})
}

// ProposePlacementOpt is ProposePlacement with explicit k-means options:
// parallelism for the macro-clustering assignment step and a metrics
// registry for iteration counters. The proposal is identical at any
// parallelism level.
func ProposePlacementOpt(r *rand.Rand, micros []cluster.Micro, k int, candidates []int, coords []coord.Coordinate, opt cluster.Options) ([]int, error) {
	out, _, err := ProposePlacementResult(r, micros, k, candidates, coords, opt)
	return out, err
}

// ProposePlacementResult is ProposePlacementOpt returning also the
// macro-clustering result backing the proposal, for callers that reuse
// the centroids — the multi-object service seeds next epoch's
// warm-started solve from them. The result aliases opt.Scratch when one
// is set; copy centroids that must outlive the next solve.
func ProposePlacementResult(r *rand.Rand, micros []cluster.Micro, k int, candidates []int, coords []coord.Coordinate, opt cluster.Options) ([]int, *cluster.KMeansResult, error) {
	res, err := cluster.MacroClusterOpt(r, micros, k, opt)
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, len(res.Centroids))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if res.Weights[order[j]] > res.Weights[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	used := make(map[int]bool, k)
	var out []int
	pickNearest := func(target vec.Vec) int {
		best, bestD := -1, math.Inf(1)
		for _, c := range candidates {
			if used[c] {
				continue
			}
			// Height included: avoid candidates behind slow access links.
			if d := coords[c].Pos.Dist(target) + coords[c].Height; d < bestD {
				best, bestD = c, d
			}
		}
		return best
	}
	for _, ci := range order {
		if len(out) == k {
			break
		}
		if c := pickNearest(res.Centroids[ci]); c >= 0 {
			used[c] = true
			out = append(out, c)
		}
	}
	if len(out) < k {
		// Fewer distinct centroids than k: place remaining replicas near
		// the overall demand centroid.
		var pts []vec.Vec
		var ws []float64
		for i := range micros {
			pts = append(pts, micros[i].Centroid())
			w := micros[i].Weight
			if w == 0 {
				w = float64(micros[i].Count)
			}
			ws = append(ws, w)
		}
		global := vec.WeightedMean(pts, ws)
		for len(out) < k {
			c := pickNearest(global)
			if c < 0 {
				break
			}
			used[c] = true
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("replica: no candidates available")
	}
	return out, res, nil
}
