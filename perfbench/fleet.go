package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/metrics"
	"github.com/georep/georep/internal/placement"
	"github.com/georep/georep/internal/replica"
	"github.com/georep/georep/internal/stats"
)

type fleetSize struct {
	nodes, dcs, k, m      int
	objects, classes      int
	accessesPerObject     int
	schedule              int // distinct epochs of input; runs cycle through them
	hotFraction, capacity float64
}

func fleetSizes(tiny bool) fleetSize {
	if tiny {
		return fleetSize{nodes: 40, dcs: 8, k: 3, m: 8, objects: 200, classes: 3, accessesPerObject: 10,
			schedule: 4, hotFraction: 0.85, capacity: 1.25}
	}
	return fleetSize{nodes: 120, dcs: 15, k: 3, m: 8, objects: 10_000, classes: 4, accessesPerObject: 20,
		schedule: 8, hotFraction: 0.85, capacity: 1.25}
}

type fleetEnv struct {
	sz       fleetSize
	w        *experiment.World
	cand     []int
	clients  []int
	homes    [][]int
	capacity []int
	svc      *placement.Service
	objs     []*placement.Object
	reg      *metrics.Registry
	led      *ledger.Ledger
	ledDir   string
}

func setupFleet(o *opts, sz fleetSize, dir string) (*fleetEnv, error) {
	w, cand, clients, err := buildWorld(sz.nodes, sz.dcs)
	if err != nil {
		return nil, err
	}
	// Class archetypes, as in the multiobject figure: each class's home
	// is the third of client nodes closest to an anchor. Like the world,
	// the archetypes are environment and do not vary with --seed.
	rng := rand.New(rand.NewSource(worldSeed * 53))
	homes := make([][]int, sz.classes)
	for c, ai := range stats.SampleWithoutReplacement(rng, len(clients), sz.classes) {
		anchor := clients[ai]
		byRTT := append([]int(nil), clients...)
		sort.Slice(byRTT, func(i, j int) bool {
			ri, rj := w.Matrix.RTT(byRTT[i], anchor), w.Matrix.RTT(byRTT[j], anchor)
			if ri != rj {
				return ri < rj
			}
			return byRTT[i] < byRTT[j]
		})
		homes[c] = byRTT[:max(len(clients)/3, 1)]
	}
	slots := int(float64(sz.objects*sz.k)*sz.capacity+float64(sz.dcs)-1) / sz.dcs
	capacity := make([]int, sz.dcs)
	for i := range capacity {
		capacity[i] = slots
	}
	led, err := ledger.Open(dir, ledger.Options{})
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	svc, err := placement.NewService(placement.ServiceConfig{
		Object: replica.Config{
			K: sz.k, M: sz.m, Dims: experiment.DefaultSetup().CoordDims,
			Metrics: reg, Ledger: led, Provenance: true,
		},
		Candidates:     cand,
		Coords:         w.Coords,
		GroupEpsilon:   0.25,
		DriftThreshold: 0.05,
		WarmStart:      true,
		Refine:         true,
		Capacity:       capacity,
		Seed:           worldSeed * 71, // the coordinator's own randomness is configuration, not load
	})
	if err != nil {
		led.Close()
		return nil, err
	}
	env := &fleetEnv{sz: sz, w: w, cand: cand, clients: clients, homes: homes, capacity: capacity,
		svc: svc, reg: reg, led: led, ledDir: dir}
	for i := 0; i < sz.objects; i++ {
		ob, err := svc.Register(fmt.Sprintf("obj-%05d", i), fmt.Sprintf("class-%d", i%sz.classes))
		if err != nil {
			led.Close()
			return nil, err
		}
		env.objs = append(env.objs, ob)
	}
	return env, nil
}

// generate draws every schedule epoch's accesses: object i of class c
// reads HotFraction of its accesses from its class's current home and
// the rest uniformly. Every fourth epoch the classes rotate homes, so
// demand shifts, groups re-solve and capacity displaces replicas.
func (env *fleetEnv) generate(seed int64) ([][]int32, string) {
	sz := env.sz
	h := sha256.New()
	var buf [4]byte
	sched := make([][]int32, sz.schedule)
	for e := range sched {
		in := make([]int32, sz.objects*sz.accessesPerObject)
		for i := 0; i < sz.objects; i++ {
			r := rand.New(rand.NewSource(seed*1_000_003 + int64(e)*int64(sz.objects) + int64(i)))
			home := env.homes[(i%sz.classes+e/4)%sz.classes]
			for a := 0; a < sz.accessesPerObject; a++ {
				var c int
				if r.Float64() < sz.hotFraction {
					c = home[r.Intn(len(home))]
				} else {
					c = env.clients[r.Intn(len(env.clients))]
				}
				in[i*sz.accessesPerObject+a] = int32(c)
				binary.LittleEndian.PutUint32(buf[:], uint32(c))
				h.Write(buf[:])
			}
		}
		sched[e] = in
	}
	return sched, fmt.Sprintf("%x", h.Sum(nil))
}

type fleetPhase struct {
	epochs   int
	accesses int64
	// Per-epoch access rates of ingest alone and of ingest + decide;
	// their medians are the throughput metrics.
	ingestRate, opsRate []float64
	epochMs, unitMs     []float64
	delaySum            float64
	delayN              int64
	bytesSum, moved     int64
	detEpochs           int
	stats               placement.EpochStats // summed over the phase
	cfSum               int64
	kmeansIters         int64
	rt                  runtimeSample // growth over the phase
}

type fleetLoop struct {
	env    *fleetEnv
	o      *opts
	sched  [][]int32
	reps   []int
	epoch  int
	inCand map[int]int // candidate node → index into capacity
	rep    *report
}

// recordChunk is how many objects one traced ingest span covers.
const recordChunk = 100

// runPhase drives whole schedule cycles until the deadline, and at
// least minEpochs, adding them to ph. A non-nil t records spans. The
// first detEpochs epochs ph sees feed the deterministic metrics.
func (l *fleetLoop) runPhase(ph *fleetPhase, deadline time.Time, minEpochs, detEpochs int, t *spans) error {
	env, sz := l.env, l.env.sz
	bytesC := env.reg.Counter("replica_summary_bytes_total")
	movedC := env.reg.Counter("replica_moved_replicas_total")
	iters := env.reg.Counter("cluster_kmeans_iterations_total")
	rt0, it0 := readRuntime(), iters.Value()
	defer func() {
		ph.rt.add(readRuntime().since(rt0))
		ph.kmeansIters += iters.Value() - it0
	}()
	A := sz.accessesPerObject
	for e := 0; e < minEpochs || time.Now().Before(deadline) || l.epoch%len(l.sched) != 0; e++ {
		in := l.sched[l.epoch%len(l.sched)]
		g := int64(l.epoch)
		root := t.begin("epoch", g, -1)
		ing := t.begin("ingest", g, root)
		t0 := time.Now()
		sp := int32(-1)
		for i, ob := range env.objs {
			if i%recordChunk == 0 {
				t.end(sp)
				sp = t.begin("placement.Object.Record", g, ing)
			}
			for a, c := range in[i*A : (i+1)*A] {
				r, err := ob.Record(env.w.Coords[c], 1)
				if err != nil {
					return err
				}
				l.reps[i*A+a] = r
			}
		}
		t.end(sp)
		ingestNs := time.Since(t0)
		t.end(ing)

		var delaySum float64
		for i, ob := range env.objs {
			var s float64
			for a, c := range in[i*A : (i+1)*A] {
				s += env.w.Matrix.RTT(int(c), l.reps[i*A+a])
			}
			ob.RecordObserved(s/float64(A), int64(A))
			delaySum += s
		}
		b0, m0 := bytesC.Value(), movedC.Value()

		t1 := time.Now()
		sp = t.begin("placement.Service.EndEpoch", g, root)
		st, err := env.svc.EndEpoch()
		t.end(sp)
		epochNs := time.Since(t1)
		t.end(root)
		if err != nil {
			return err
		}

		n := int64(sz.objects * A)
		l.rep.attempted += n + int64(sz.objects)
		if st.Decided != sz.objects {
			l.rep.fail(int64(sz.objects-st.Decided), "epoch %d: %d of %d objects decided", l.epoch, st.Decided, sz.objects)
		}
		l.checkCapacity()
		if t != nil {
			for _, ob := range env.objs {
				if prov := ob.LastProvenance(); prov != nil {
					ph.cfSum += int64(len(prov.Counterfactuals))
				}
			}
		}
		if ph.detEpochs < detEpochs {
			ph.delaySum += delaySum
			ph.delayN += n
			ph.bytesSum += bytesC.Value() - b0
			ph.moved += movedC.Value() - m0
			ph.detEpochs++
		}
		ph.stats.Groups += st.Groups
		ph.stats.Solves += st.Solves
		ph.stats.DriftSkips += st.DriftSkips
		ph.stats.Refined += st.Refined
		ph.stats.BoundHits += st.BoundHits
		ph.stats.Displaced += st.Displaced
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

// checkCapacity recounts every object's placement: k distinct
// candidates each, and no data center over its slot budget.
func (l *fleetLoop) checkCapacity() {
	env := l.env
	counts := make([]int, len(env.cand))
	for _, ob := range env.objs {
		reps := ob.Replicas()
		seen := map[int]bool{}
		for _, r := range reps {
			ci, ok := l.inCand[r]
			if !ok || seen[r] {
				l.rep.fail(1, "epoch %d: object %s placed on %v", l.epoch, ob.ID, reps)
				break
			}
			seen[r] = true
			counts[ci]++
		}
		if len(reps) != env.sz.k {
			l.rep.fail(1, "epoch %d: object %s has %d replicas, want %d", l.epoch, ob.ID, len(reps), env.sz.k)
		}
	}
	if l.o.inject.capacityOverflow && l.epoch == 0 {
		counts[0] = env.capacity[0] + 1
	}
	for ci, c := range counts {
		if c > env.capacity[ci] {
			l.rep.fail(int64(c-env.capacity[ci]), "epoch %d: DC %d holds %d replicas, capacity %d", l.epoch, env.cand[ci], c, env.capacity[ci])
		}
	}
}

func runFleet(o *opts) (*report, error) {
	sz := fleetSizes(o.tiny)
	rep := newReport()
	env, setupS, err := timedSetup(func(i int) (*fleetEnv, error) {
		return setupFleet(o, sz, filepath.Join(o.tmp, fmt.Sprintf("fleet-ledger-%d", i)))
	}, func(e *fleetEnv) { e.led.Close() })
	if err != nil {
		return nil, err
	}
	defer env.led.Close()
	sched, digest := env.generate(o.seed)
	rep.fingerprint = "fleet-schedule-sha256:" + digest
	l := &fleetLoop{env: env, o: o, sched: sched, reps: make([]int, sz.objects*sz.accessesPerObject),
		inCand: map[int]int{}, rep: rep}
	for i, c := range env.cand {
		l.inCand[c] = i
	}

	deadline := time.Now().Add(seconds(o.seconds))
	ph, tph := &fleetPhase{}, &fleetPhase{}
	var t *spans
	if !o.trace {
		minEpochs := sz.schedule
		if !o.tiny {
			minEpochs = max(minEpochs, tailSamples(0.75))
		}
		err = l.runPhase(ph, deadline, minEpochs, sz.schedule, nil)
	} else {
		t = newSpans()
		rep.spans = t
		err = alternate(deadline, func(traced bool) error {
			if traced {
				return l.runPhase(tph, time.Time{}, 1, 0, t)
			}
			return l.runPhase(ph, time.Time{}, 1, sz.schedule, nil)
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
	rep.layer["replica.moved_replicas_per_epoch"] = float64(ph.moved) / float64(ph.detEpochs)
	rep.layer["go.alloc_bytes_per_epoch"] = float64(ph.rt.allocBytes) / float64(ph.epochs)
	rep.layer["go.gc_cpu_fraction"] = ph.rt.gcFraction()
	rep.note("fleet-10k: %d untraced epochs of %d objects x %d accesses, %d-epoch schedule, moved_replicas_per_epoch %.4f count",
		ph.epochs, sz.objects, sz.accessesPerObject, sz.schedule, rep.layer["replica.moved_replicas_per_epoch"])
	if !o.trace {
		return rep, nil
	}

	var recNs float64
	for _, d := range durationsOf(t.list, "placement.Object.Record") {
		recNs += d
	}
	e := float64(tph.epochs)
	rep.layer["placement.record_ns_per_access"] = recNs / float64(tph.accesses)
	rep.layer["placement.groups_per_epoch"] = float64(tph.stats.Groups) / e
	rep.layer["placement.solves_per_epoch"] = float64(tph.stats.Solves) / e
	rep.layer["placement.drift_skips_per_epoch"] = float64(tph.stats.DriftSkips) / e
	rep.layer["placement.refined_per_epoch"] = float64(tph.stats.Refined) / e
	rep.layer["placement.bound_hits_per_epoch"] = float64(tph.stats.BoundHits) / e
	rep.layer["placement.displaced_per_epoch"] = float64(tph.stats.Displaced) / e
	rep.layer["provenance.counterfactuals_per_epoch"] = float64(tph.cfSum) / e
	rep.layer["cluster.kmeans_iterations_per_epoch"] = float64(tph.kmeansIters) / e
	traceRatios(rep, "fleet-10k", t, "epoch", median(ph.unitMs), rep.e2e["epoch_ms_p50"], "placement.Service.EndEpoch")
	rep.note("fleet-10k: %d traced epochs", tph.epochs)
	return rep, reappendLedger(o, env.ledDir, sz.objects, rep)
}
