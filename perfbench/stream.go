package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/georep/georep/internal/cluster"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/stats"
	"github.com/georep/georep/internal/workload"
)

// worldSeed fixes the latency world every workload runs in. The world is
// the environment, not the load: holding it fixed lets --seed vary only
// the accesses, so run-to-run spread reflects the load and the code.
const worldSeed = 1

// buildWorld builds the n-node world and splits it into dcs candidate
// data centers and the client nodes (the rest), as replicasim's scale
// and multiobject figures do.
func buildWorld(n, dcs int) (w *experiment.World, cand, clients []int, err error) {
	setup := experiment.DefaultSetup()
	setup.Nodes = n
	if w, err = experiment.BuildWorld(worldSeed, setup); err != nil {
		return nil, nil, nil, err
	}
	cand = stats.SampleWithoutReplacement(rand.New(rand.NewSource(worldSeed*37)), n, dcs)
	isCand := make(map[int]bool, dcs)
	for _, c := range cand {
		isCand[c] = true
	}
	for i := 0; i < n; i++ {
		if !isCand[i] {
			clients = append(clients, i)
		}
	}
	return w, cand, clients, nil
}

type streamSize struct {
	nodes, dcs, k, m, shards int
	clients, rate, batch     int
	// schedule is how many distinct epochs of input are generated; runs
	// cycle through them. The deterministic metrics cover exactly one
	// pass of the schedule.
	schedule int
}

func streamSizes(tiny bool) streamSize {
	if tiny {
		return streamSize{nodes: 40, dcs: 8, k: 3, m: 8, shards: 8, clients: 20_000, rate: 5_000, batch: 1024, schedule: 4}
	}
	return streamSize{nodes: 120, dcs: 15, k: 3, m: 8, shards: 8, clients: 1_000_000, rate: 200_000, batch: 4096, schedule: 12}
}

type streamEnv struct {
	sz          streamSize
	w           *experiment.World
	cand        []int
	clientNodes []int
	spec        workload.StreamSpec
	clients     []workload.ClientSpec
	mgr         *replica.Manager
	reg         *metrics.Registry
	led         *ledger.Ledger
	ledDir      string
}

// streamInput is one epoch of generated load: the client node of every
// access in stream order, and the per-node access counts. The stream's
// single object has one transfer size, so a node's accesses differ only
// in count.
type streamInput struct {
	nodes  []int32
	counts []int
}

func setupStream(o *opts, sz streamSize, dir string) (*streamEnv, error) {
	w, cand, clientNodes, err := buildWorld(sz.nodes, sz.dcs)
	if err != nil {
		return nil, err
	}
	// Dense region ids over the regions that have client nodes.
	remap := map[int]int{}
	regions := make([]int, len(clientNodes))
	for i, n := range clientNodes {
		r, ok := remap[w.Placements[n].Region]
		if !ok {
			r = len(remap)
			remap[w.Placements[n].Region] = r
		}
		regions[i] = r
	}
	clients, err := workload.SynthClients(rand.New(rand.NewSource(o.seed)), sz.clients, clientNodes, regions)
	if err != nil {
		return nil, err
	}
	spec := workload.StreamSpec{
		Clients: sz.clients, Regions: len(remap), Objects: 1, MeanObjectBytes: 1,
		BatchSize: sz.batch, Rate: sz.rate, Churn: 0.02,
		DiurnalPeriod: float64(sz.schedule), DiurnalFloor: 0.1,
	}
	// A flash crowd on the region with the most client nodes during the
	// third quarter of the schedule makes the placement move. The region
	// is picked from the world, not from the seeded client rates, so
	// every seed stresses the same region.
	nodesIn := make([]int, len(remap))
	busiest := 0
	for _, r := range regions {
		nodesIn[r]++
	}
	for r := range nodesIn {
		if nodesIn[r] > nodesIn[busiest] {
			busiest = r
		}
	}
	spec.Flash = []workload.FlashCrowd{{Region: busiest, Start: sz.schedule / 2, Duration: max(sz.schedule/4, 1), Mult: 6}}
	env := &streamEnv{sz: sz, w: w, cand: cand, clientNodes: clientNodes, spec: spec, clients: clients}
	if err := env.newManager(dir); err != nil {
		return nil, err
	}
	return env, nil
}

// newManager replaces the env's manager with a fresh one journaling into
// a new ledger in dir.
func (env *streamEnv) newManager(dir string) error {
	if env.led != nil {
		env.led.Close()
	}
	led, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		return err
	}
	env.reg = metrics.NewRegistry()
	env.mgr, err = replica.NewManager(replica.Config{
		K: env.sz.k, M: env.sz.m, Dims: experiment.DefaultSetup().CoordDims,
		IngestShards: env.sz.shards,
		Migration:    replica.MigrationPolicy{MinRelativeGain: 0.05},
		Metrics:      env.reg,
		Ledger:       led,
		Provenance:   true,
	}, env.cand, env.w.Coords, nil)
	if err != nil {
		led.Close()
		return err
	}
	env.led, env.ledDir = led, dir
	return nil
}

// generate draws the schedule from a fresh stream and fingerprints it
// exactly as workload.StreamDigest does. It returns the schedule, the
// common transfer size, and the per-access generation cost.
func (env *streamEnv) generate(seed int64) ([]streamInput, float64, string, float64, error) {
	st, err := workload.NewStream(env.spec, env.clients)
	if err != nil {
		return nil, 0, "", 0, err
	}
	st.Seed(seed*41 + 1)
	h := sha256.New()
	batch := make([]workload.Access, env.spec.BatchSize)
	enc := make([]byte, 0, 16*env.spec.BatchSize)
	weight := -1.0
	var genNs time.Duration
	var generated int
	sched := make([]streamInput, env.sz.schedule)
	for e := range sched {
		counts := make([]int, env.w.Matrix.N())
		nodes := make([]int32, 0, st.EpochBatches()*len(batch))
		for b := 0; b < st.EpochBatches(); b++ {
			t0 := time.Now()
			st.Next(batch)
			genNs += time.Since(t0)
			generated += len(batch)
			enc = workload.AppendEncoded(enc[:0], batch)
			h.Write(enc)
			for _, a := range batch {
				if weight < 0 {
					weight = a.Bytes
				}
				if a.Bytes != weight {
					return nil, 0, "", 0, fmt.Errorf("stream: single-object transfer size changed %g -> %g", weight, a.Bytes)
				}
				counts[a.Client]++
				nodes = append(nodes, int32(a.Client))
			}
		}
		if err := st.Advance(); err != nil {
			return nil, 0, "", 0, err
		}
		sched[e] = streamInput{nodes: nodes, counts: counts}
	}
	return sched, weight, fmt.Sprintf("%x", h.Sum(nil)), float64(genNs) / float64(generated), nil
}

// streamPhase accumulates one measurement phase.
type streamPhase struct {
	epochs   int
	accesses int64
	// Per-epoch access rates of ingest alone and of ingest + decide;
	// their medians are the throughput metrics.
	ingestRate, opsRate []float64
	epochMs, unitMs     []float64
	delaySum            float64
	delayN              int64
	bytesSum, movedSum  int64
	cfSum               int64
	kmeansIters         int64
	rt                  runtimeSample // growth over the phase
	detEpochs           int           // epochs folded into delay/bytes/moved
}

// streamLoop is the per-epoch loop shared by the untraced and traced
// phases. Routing, batching, ground-truth delay and all checks run
// outside the timed regions.
type streamLoop struct {
	env     *streamEnv
	sched   []streamInput
	weights []float64
	route   []int
	rng     *rand.Rand
	epoch   int // global epoch counter across phases (drives the schedule and the seeds)
	split   bool
	inCand  map[int]bool
	rep     *report
	flat    []int         // this epoch's accesses grouped into ingest batches
	batches []ingestBatch // this epoch's RecordBatchAt calls, in order
}

// ingestBatch is one RecordBatchAt call: the accesses flat[lo:hi],
// all served by replica rep.
type ingestBatch struct{ rep, lo, hi int }

func newStreamLoop(env *streamEnv, sched []streamInput, weight float64, rep *report) *streamLoop {
	l := &streamLoop{env: env, sched: sched, rep: rep,
		rng: rand.New(rand.NewSource(0)), route: make([]int, env.w.Matrix.N()), inCand: map[int]bool{}}
	l.weights = make([]float64, env.spec.BatchSize)
	for i := range l.weights {
		l.weights[i] = weight
	}
	for _, c := range env.cand {
		l.inCand[c] = true
	}
	return l
}

// batch splits the epoch's accesses, in stream order, into one
// RecordBatchAt call per generated batch and serving replica, as a
// front end that routes each arriving batch would. Each call's accesses
// keep their stream order, so the summarizers see clients interleaved
// as they arrive rather than in runs of one node.
func (l *streamLoop) batch(in streamInput, replicas []int) {
	bs := l.env.spec.BatchSize
	l.flat, l.batches = l.flat[:0], l.batches[:0]
	for b := 0; b < len(in.nodes); b += bs {
		part := in.nodes[b:min(b+bs, len(in.nodes))]
		for _, r := range replicas {
			lo := len(l.flat)
			for _, n := range part {
				if l.route[n] == r {
					l.flat = append(l.flat, int(n))
				}
			}
			if len(l.flat) > lo {
				l.batches = append(l.batches, ingestBatch{rep: r, lo: lo, hi: len(l.flat)})
			}
		}
	}
}

// runPhase drives whole schedule cycles until the deadline, and at
// least minEpochs, adding them to ph. A non-nil t records spans. The
// first detEpochs epochs ph sees feed the deterministic metrics.
func (l *streamLoop) runPhase(ph *streamPhase, deadline time.Time, minEpochs, detEpochs int, t *spans) error {
	env, mgr := l.env, l.env.mgr
	acc := env.reg.Counter("replica_accesses_total")
	iters := env.reg.Counter("cluster_kmeans_iterations_total")
	rt0, it0 := readRuntime(), iters.Value()
	defer func() {
		ph.rt.add(readRuntime().since(rt0))
		ph.kmeansIters += iters.Value() - it0
	}()
	for e := 0; e < minEpochs || time.Now().Before(deadline) || l.epoch%len(l.sched) != 0; e++ {
		in := l.sched[l.epoch%len(l.sched)]
		for _, n := range env.clientNodes {
			l.route[n] = mgr.Route(env.w.Coords[n])
		}
		l.batch(in, mgr.Replicas())
		var delaySum float64
		var n int64
		for node, c := range in.counts {
			if c > 0 {
				delaySum += float64(c) * env.w.Matrix.RTT(node, l.route[node])
				n += int64(c)
			}
		}
		// The coordinator's k-means draws are configuration, not load:
		// seeding them from the world keeps --seed to the accesses.
		l.rng.Seed(worldSeed*100 + int64(l.epoch))
		before := acc.Value()
		g := int64(l.epoch)

		root := t.begin("epoch", g, -1)
		ing := t.begin("ingest", g, root)
		t0 := time.Now()
		for _, b := range l.batches {
			sp := t.begin("replica.RecordBatchAt", g, ing)
			err := mgr.RecordBatchAt(b.rep, l.flat[b.lo:b.hi], l.weights[:b.hi-b.lo])
			t.end(sp)
			if err != nil {
				return err
			}
		}
		ingestNs := time.Since(t0)
		t.end(ing)
		mgr.RecordObserved(delaySum/float64(n), n)
		t1 := time.Now()
		var dec replica.Decision
		var err error
		if l.split {
			dec, err = l.splitEpoch(t, g, root)
		} else {
			sp := t.begin("replica.EndEpoch", g, root)
			dec, err = mgr.EndEpoch(l.rng)
			t.end(sp)
		}
		epochNs := time.Since(t1)
		t.end(root)
		if err != nil {
			return err
		}

		l.rep.attempted += n + 1
		if got := acc.Value() - before; got != n {
			l.rep.fail(n, "epoch %d: replica_accesses_total grew by %d, generated %d", l.epoch, got, n)
		}
		if !l.validPlacement(dec.NewReplicas) {
			l.rep.fail(1, "epoch %d: placement %v is not %d distinct candidates", l.epoch, dec.NewReplicas, env.sz.k)
		}
		if prov := mgr.LastProvenance(); prov != nil {
			ph.cfSum += int64(len(prov.Counterfactuals))
		}
		if ph.detEpochs < detEpochs {
			ph.delaySum += delaySum
			ph.delayN += n
			ph.bytesSum += int64(dec.CollectedBytes)
			ph.movedSum += int64(dec.MovedReplicas)
			ph.detEpochs++
		}
		ph.epochs++
		ph.accesses += n
		ph.ingestRate = append(ph.ingestRate, float64(n)/ingestNs.Seconds())
		ph.opsRate = append(ph.opsRate, float64(n)/(ingestNs+epochNs).Seconds())
		ph.epochMs = append(ph.epochMs, float64(epochNs)/1e6)
		ph.unitMs = append(ph.unitMs, float64(ingestNs+epochNs)/1e6)
		l.epoch++
	}
	return nil
}

// splitEpoch is EndEpoch as its three public stages, the split the
// multi-object service uses, so each stage gets its own span.
func (l *streamLoop) splitEpoch(t *spans, g int64, root int32) (replica.Decision, error) {
	env, mgr := l.env, l.env.mgr
	end := t.begin("replica.EndEpoch", g, root)
	defer t.end(end)
	sp := t.begin("replica.BeginEpoch", g, end)
	p, err := mgr.BeginEpoch(nil)
	t.end(sp)
	if err != nil {
		return replica.Decision{}, err
	}
	var ov *replica.EpochOverride
	if p.CanDecide() {
		sp = t.begin("replica.ProposePlacementOpt", g, end)
		proposed, err := replica.ProposePlacementOpt(l.rng, p.Micros(), mgr.K(), env.cand, env.w.Coords,
			cluster.Options{Metrics: env.reg})
		t.end(sp)
		if err != nil {
			return replica.Decision{}, err
		}
		ov = &replica.EpochOverride{Proposed: proposed}
	}
	sp = t.begin("replica.CompleteEpoch", g, end)
	dec, err := mgr.CompleteEpoch(l.rng, p, ov)
	t.end(sp)
	return dec, err
}

func (l *streamLoop) validPlacement(reps []int) bool {
	if len(reps) != l.env.sz.k {
		return false
	}
	seen := map[int]bool{}
	for _, r := range reps {
		if !l.inCand[r] || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

func runStream(o *opts) (*report, error) {
	sz := streamSizes(o.tiny)
	rep := newReport()
	env, setupS, err := timedSetup(func(i int) (*streamEnv, error) {
		return setupStream(o, sz, filepath.Join(o.tmp, fmt.Sprintf("stream-ledger-%d", i)))
	}, func(e *streamEnv) { e.led.Close() })
	if err != nil {
		return nil, err
	}
	defer func() { env.led.Close() }()
	sched, weight, digest, nextNs, err := env.generate(o.seed)
	if err != nil {
		return nil, err
	}
	rep.fingerprint = "stream-sha256:" + digest
	rep.layer["workload.next_ns_per_access"] = nextNs

	loop := newStreamLoop(env, sched, weight, rep)
	deadline := time.Now().Add(seconds(o.seconds))
	ph, tph := &streamPhase{}, &streamPhase{}
	var t *spans
	same := false
	if !o.trace {
		minEpochs := sz.schedule
		if !o.tiny {
			minEpochs = max(minEpochs, tailSamples(0.75))
		}
		err = loop.runPhase(ph, deadline, minEpochs, sz.schedule, nil)
	} else {
		// Traced cycles run BeginEpoch → ProposePlacementOpt →
		// CompleteEpoch when that split journals the same ledger bytes
		// as EndEpoch; otherwise EndEpoch is timed as one span.
		if same, err = splitMatchesEndEpoch(o, env, sched, weight); err != nil {
			return nil, err
		}
		if !same {
			rep.note("stream-1m: split epoch journals different ledger bytes than EndEpoch; EndEpoch timed as one span")
		}
		t = newSpans()
		rep.spans = t
		err = alternate(deadline, func(traced bool) error {
			loop.split = traced && same
			if traced {
				return loop.runPhase(tph, time.Time{}, 1, 0, t)
			}
			return loop.runPhase(ph, time.Time{}, 1, sz.schedule, nil)
		})
	}
	if err != nil {
		return nil, err
	}
	if err := setLoopMetrics(rep, o, ph.epochMs, setupS); err != nil {
		return nil, err
	}
	rep.e2e["ingest_accesses_per_s"] = median(ph.ingestRate)
	rep.e2e["ops_per_s"] = median(ph.opsRate)
	rep.e2e["access_delay_ms"] = ph.delaySum / float64(ph.delayN)
	rep.e2e["summary_bytes_per_epoch"] = float64(ph.bytesSum) / float64(ph.detEpochs)
	rep.layer["replica.moved_replicas_per_epoch"] = float64(ph.movedSum) / float64(ph.detEpochs)
	rep.layer["go.alloc_bytes_per_epoch"] = float64(ph.rt.allocBytes) / float64(ph.epochs)
	rep.layer["go.gc_cpu_fraction"] = ph.rt.gcFraction()
	rep.note("stream-1m: %d untraced epochs of %d accesses, %d-epoch schedule, moved_replicas_per_epoch %.4f count",
		ph.epochs, ph.accesses/int64(ph.epochs), sz.schedule, rep.layer["replica.moved_replicas_per_epoch"])
	if !o.trace {
		return rep, nil
	}

	var batchNs float64
	for _, d := range durationsOf(t.list, "replica.RecordBatchAt") {
		batchNs += d
	}
	rep.layer["replica.record_batch_ns_per_access"] = batchNs / float64(tph.accesses)
	if same {
		rep.layer["replica.begin_epoch_us_p50"] = median(durationsOf(t.list, "replica.BeginEpoch")) / 1e3
		rep.layer["replica.propose_us_p50"] = median(durationsOf(t.list, "replica.ProposePlacementOpt")) / 1e3
		rep.layer["replica.complete_epoch_us_p50"] = median(durationsOf(t.list, "replica.CompleteEpoch")) / 1e3
	}
	rep.layer["cluster.kmeans_iterations_per_epoch"] = float64(tph.kmeansIters) / float64(tph.epochs)
	rep.layer["provenance.counterfactuals_per_epoch"] = float64(tph.cfSum) / float64(tph.epochs)
	traceRatios(rep, "stream-1m", t, "epoch", median(ph.unitMs), rep.e2e["epoch_ms_p50"],
		"replica.EndEpoch", "replica.BeginEpoch", "replica.ProposePlacementOpt", "replica.CompleteEpoch")
	rep.note("stream-1m: %d traced epochs", tph.epochs)
	return rep, reappendLedger(o, env.ledDir, 2000, rep)
}

// splitMatchesEndEpoch runs one schedule pass on two fresh managers, one
// through EndEpoch and one through the three-stage split, and compares
// their ledgers byte for byte.
func splitMatchesEndEpoch(o *opts, env *streamEnv, sched []streamInput, weight float64) (bool, error) {
	var dirs [2]string
	saved := *env
	defer func() { env.mgr, env.reg, env.led, env.ledDir = saved.mgr, saved.reg, saved.led, saved.ledDir }()
	for i, split := range []bool{false, true} {
		env.led = nil
		dirs[i] = filepath.Join(o.tmp, fmt.Sprintf("split-check-%d", i))
		if err := env.newManager(dirs[i]); err != nil {
			return false, err
		}
		l := newStreamLoop(env, sched, weight, newReport())
		l.split = split
		err := l.runPhase(&streamPhase{}, time.Time{}, len(sched), 0, nil)
		env.led.Close()
		if err != nil {
			return false, err
		}
	}
	return sameDirBytes(dirs[0], dirs[1])
}

func sameDirBytes(a, b string) (bool, error) {
	ea, err := os.ReadDir(a)
	if err != nil {
		return false, err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return false, err
	}
	if len(ea) != len(eb) {
		return false, nil
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return false, nil
		}
		x, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return false, err
		}
		y, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return false, err
		}
		if !bytes.Equal(x, y) {
			return false, nil
		}
	}
	return true, nil
}

// reappendLedger re-appends up to limit of the run's ledger records into
// a scratch ledger, timing each Append.
func reappendLedger(o *opts, dir string, limit int, rep *report) error {
	recs, err := ledger.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	scratch, err := ledger.Open(filepath.Join(o.tmp, "reappend"), ledger.Options{MaxTotalBytes: -1})
	if err != nil {
		return err
	}
	defer scratch.Close()
	us := make([]float64, 0, len(recs))
	for _, r := range recs {
		t0 := time.Now()
		if err := scratch.Append(r); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	if len(recs) == 0 {
		return fmt.Errorf("ledger %s holds no records", dir)
	}
	rep.layer["ledger.append_us_p50"] = median(us)
	rep.layer["ledger.bytes_per_record"] = float64(scratch.Stats().Bytes) / float64(len(recs))
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
