package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/georep/georep/internal/daemon"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/store"
	"github.com/georep/georep/internal/trace"
)

type daemonSize struct {
	nodes, dcs     int // world size and candidate DCs the daemons sit at
	objectsPerConn int
	schedule       int // ops per connection before the schedule repeats
	roundEvery     int // ops between maintenance rounds
	detRounds      int // rounds per connection the summary bytes cover
	payload        int
}

func daemonSizes(tiny bool) daemonSize {
	if tiny {
		return daemonSize{nodes: 40, dcs: 8, objectsPerConn: 8, schedule: 512, roundEvery: 64, detRounds: 4, payload: 32}
	}
	return daemonSize{nodes: 120, dcs: 15, objectsPerConn: 64, schedule: 8192, roundEvery: 512, detRounds: 8, payload: 256}
}

// sloSpec is the objective set the daemons evaluate: georepd's example
// availability and read-latency objectives.
const sloSpec = "avail ratio(daemon_rpc_errors_total / daemon_rpc_total) <= 0.001; read_p99 p99(daemon_rpc_get_ms) <= 50"

// writeShare is the put share of the op mix, and the daemons' advisory
// write ratio.
const writeShare = 0.2

type daemonOp struct {
	put    bool
	obj    int
	client int
}

type daemonEnv struct {
	sz      daemonSize
	w       *experiment.World
	dc      []int // world node each daemon sits at
	nodes   []*daemon.Node
	conns   []*daemon.Client
	clients []int      // world nodes the reads come from
	names   [][]string // per connection, its objects
	payload []byte
}

func (env *daemonEnv) close() {
	for _, c := range env.conns {
		c.Close()
	}
	for _, n := range env.nodes {
		n.Close()
	}
}

// setupDaemon starts one daemon per CPU on loopback with georepd's
// defaults (flight recorder on) plus the write log and the SLO engine,
// dials one connection to each and stores every object at version 1.
func setupDaemon(sz daemonSize) (*daemonEnv, error) {
	w, cand, clients, err := buildWorld(sz.nodes, sz.dcs)
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	env := &daemonEnv{sz: sz, w: w, clients: clients, payload: make([]byte, sz.payload)}
	for i := 0; i < n; i++ {
		dc := cand[i%len(cand)]
		node, err := daemon.NewNode(daemon.Config{
			ID: i, MicroClusters: 10, Dims: experiment.DefaultSetup().CoordDims,
			Coordinate: w.Coords[dc].Pos, Height: w.Coords[dc].Height,
			WriteRatio: writeShare,
			Trace:      trace.NewFlightRecorder(trace.DefaultRecent, trace.DefaultAnomalous),
			SLOSpec:    sloSpec,
			// The benchmark samples and evaluates itself; a long
			// interval keeps the node's own ticker idle.
			SLOInterval: time.Hour,
		})
		if err != nil {
			env.close()
			return nil, err
		}
		if err := node.Start("127.0.0.1:0"); err != nil {
			env.close()
			return nil, err
		}
		env.nodes = append(env.nodes, node)
		env.dc = append(env.dc, dc)
		c, err := daemon.DialNode(node.Addr(), 5*time.Second)
		if err != nil {
			env.close()
			return nil, err
		}
		env.conns = append(env.conns, c)
		names := make([]string, sz.objectsPerConn)
		for j := range names {
			names[j] = fmt.Sprintf("obj-%d-%03d", i, j)
			if err := c.Put(names[j], env.payload, 1); err != nil {
				env.close()
				return nil, err
			}
		}
		env.names = append(env.names, names)
	}
	return env, nil
}

// schedules draws each connection's op cycle and fingerprints them all.
func (env *daemonEnv) schedules(seed int64) ([][]daemonOp, string) {
	clients := env.clients
	h := sha256.New()
	var buf [12]byte
	out := make([][]daemonOp, len(env.conns))
	for i := range out {
		r := rand.New(rand.NewSource(seed*1000 + int64(i)))
		ops := make([]daemonOp, env.sz.schedule)
		for k := range ops {
			ops[k] = daemonOp{put: r.Float64() < writeShare, obj: r.Intn(env.sz.objectsPerConn), client: clients[r.Intn(len(clients))]}
			put := uint32(0)
			if ops[k].put {
				put = 1
			}
			binary.LittleEndian.PutUint32(buf[0:], put)
			binary.LittleEndian.PutUint32(buf[4:], uint32(ops[k].obj))
			binary.LittleEndian.PutUint32(buf[8:], uint32(ops[k].client))
			h.Write(buf[:])
		}
		out[i] = ops
	}
	return out, fmt.Sprintf("%x", h.Sum(nil))
}

// conn is one closed-loop client: it owns a connection, the node behind
// it and that node's objects, so every node's state is a function of
// its connection's schedule alone.
type conn struct {
	id             int
	env            *daemonEnv
	node           *daemon.Node
	c              *daemon.Client
	ops            []daemonOp
	coords         map[int][]float64
	acked          []uint64
	k              int    // next schedule position
	roundAt        int    // schedule position of the last round
	lastSeq        uint64 // replicate position
	putsSinceRound int
	detLeft        int // rounds whose summary bytes still feed the deterministic metric
	inject         bool
}

// connPhase is one connection's share of a phase.
type connPhase struct {
	getMs, putMs, rttUs   *reservoir
	roundMs, summaryBytes []float64
	// Per-window rates of ops and of gets, a window running from one
	// round's start to the next's.
	opsRate, getsRate  []float64
	gets, puts, rounds int64
	attempted, failed  int64
	problems           []string
	spans              *spans
}

// daemonResult merges the connections' phases.
type daemonResult struct {
	getMs, putMs, rttUs, roundMs, summaryBytes []float64
	opsRate, getsRate                          [][]float64 // per connection
	gets, puts, rounds, attempted, failed      int64
	problems                                   []string
	spans                                      *spans
}

func (p *connPhase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (c *conn) run(deadline time.Time, minRounds int, t *spans) *connPhase {
	ph := &connPhase{spans: t, getMs: newReservoir(latencySamples, int64(c.id)),
		rttUs: newReservoir(latencySamples, int64(c.id)+1<<20), putMs: newReservoir(latencySamples, int64(c.id)+2<<20)}
	S, every := len(c.ops), c.env.sz.roundEvery
	names := c.env.names[c.id]
	var winAt time.Time
	var winK int
	var winGets int64
	for {
		if c.k > 0 && c.k%every == 0 && c.roundAt != c.k {
			now := time.Now()
			if !winAt.IsZero() {
				d := now.Sub(winAt).Seconds()
				ph.opsRate = append(ph.opsRate, float64(c.k-winK)/d)
				ph.getsRate = append(ph.getsRate, float64(ph.gets-winGets)/d)
			}
			winAt, winK, winGets = now, c.k, ph.gets
			c.roundAt = c.k
			c.round(ph, t)
			if ph.rounds >= int64(minRounds) && !time.Now().Before(deadline) {
				return ph
			}
		}
		op := c.ops[c.k%S]
		g := int64(c.id)<<40 | int64(c.k)
		ph.attempted++
		if op.put {
			v := c.acked[op.obj] + 1
			sp := t.begin("daemon.Put", g, -1)
			t0 := time.Now()
			err := c.c.Put(names[op.obj], c.env.payload, v)
			d := time.Since(t0)
			t.end(sp)
			if err != nil {
				ph.fail("put %s v%d: %v", names[op.obj], v, err)
			} else {
				c.acked[op.obj] = v
				c.putsSinceRound++
			}
			ph.putMs.add(float64(d) / 1e6)
			ph.puts++
		} else {
			if c.inject && c.k >= 10 {
				// A write the client never made: the next read of the
				// object must not match the version last acked.
				c.inject = false
				_ = c.node.Store().Put(store.Object{ID: store.ObjectID(names[op.obj]), Data: c.env.payload, Version: c.acked[op.obj] + 5})
			}
			sp := t.begin("daemon.Get", g, -1)
			t0 := time.Now()
			resp, rtt, err := c.c.Get(op.client, c.coords[op.client], names[op.obj])
			d := time.Since(t0)
			t.end(sp)
			switch {
			case err != nil:
				ph.fail("get %s: %v", names[op.obj], err)
			case resp.Version != c.acked[op.obj]:
				ph.fail("get %s on node %d returned v%d, last acked v%d", names[op.obj], c.id, resp.Version, c.acked[op.obj])
			}
			ph.getMs.add(float64(d) / 1e6)
			ph.rttUs.add(float64(rtt) / 1e3)
			ph.gets++
		}
		c.k++
	}
}

// round is the maintenance step every roundEvery ops: summary
// collection, decay and write-log catch-up over the wire, then a history
// sample and an SLO evaluation on the node.
func (c *conn) round(ph *connPhase, t *spans) {
	g := int64(c.id)<<40 | int64(c.k) | 1<<39
	ph.attempted++
	t0 := time.Now()
	root := t.begin("round", g, -1)
	sp := t.begin("daemon.Micros", g, root)
	_, nb, err := c.c.Micros()
	t.end(sp)
	if err != nil {
		ph.fail("micros: %v", err)
	}
	sp = t.begin("daemon.Decay", g, root)
	err = c.c.Decay(0.5)
	t.end(sp)
	if err != nil {
		ph.fail("decay: %v", err)
	}
	sp = t.begin("replog.Replicate", g, root)
	resp, entries, err := c.c.Replicate(c.lastSeq, 4096)
	t.end(sp)
	switch {
	case err != nil:
		ph.fail("replicate: %v", err)
	case resp.Snapshot:
		ph.fail("replicate from %d: snapshot redirect", c.lastSeq)
	case len(entries) != c.putsSinceRound:
		ph.fail("replicate from %d: %d entries for %d acked puts", c.lastSeq, len(entries), c.putsSinceRound)
	}
	for i, e := range entries {
		if e.Seq != c.lastSeq+uint64(i)+1 {
			ph.fail("replicate from %d: entry %d has seq %d", c.lastSeq, i, e.Seq)
			break
		}
	}
	if len(entries) > 0 {
		c.lastSeq = entries[len(entries)-1].Seq
	}
	c.putsSinceRound = 0
	now := time.Now().UnixNano()
	sp = t.begin("metrics.History.Sample", g, root)
	c.node.History().Sample(now)
	t.end(sp)
	sp = t.begin("slo.Evaluate", g, root)
	c.node.SLO().Evaluate(now)
	t.end(sp)
	t.end(root)
	ph.roundMs = append(ph.roundMs, float64(time.Since(t0))/1e6)
	if c.detLeft > 0 {
		c.detLeft--
		ph.summaryBytes = append(ph.summaryBytes, float64(nb))
	}
	ph.rounds++
}

// latencySamples is each connection's per-phase latency reservoir size:
// enough for a p99 with hundreds of samples beyond it, and fixed, so a
// faster run does not hold more memory.
const latencySamples = 1 << 15

func (p *daemonResult) add(conn int, o *connPhase) {
	for len(p.opsRate) <= conn {
		p.opsRate, p.getsRate = append(p.opsRate, nil), append(p.getsRate, nil)
	}
	p.opsRate[conn] = append(p.opsRate[conn], o.opsRate...)
	p.getsRate[conn] = append(p.getsRate[conn], o.getsRate...)
	p.getMs = append(p.getMs, o.getMs.buf...)
	p.putMs = append(p.putMs, o.putMs.buf...)
	p.roundMs = append(p.roundMs, o.roundMs...)
	p.rttUs = append(p.rttUs, o.rttUs.buf...)
	p.summaryBytes = append(p.summaryBytes, o.summaryBytes...)
	p.gets += o.gets
	p.puts += o.puts
	p.rounds += o.rounds
	p.attempted += o.attempted
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
	if o.spans != nil {
		p.spans.merge(o.spans)
	}
}

// daemonPhase runs every connection concurrently until the deadline and
// adds their results to all; it returns the wall time.
func daemonPhase(all *daemonResult, conns []*conn, deadline time.Time, minRounds int) time.Duration {
	out := make([]*connPhase, len(conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			var t *spans
			if all.spans != nil {
				t = newSpans()
			}
			out[i] = c.run(deadline, minRounds, t)
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, p := range out {
		all.add(i, p)
	}
	return wall
}

func runDaemon(o *opts) (*report, error) {
	sz := daemonSizes(o.tiny)
	rep := newReport()
	env, setupS, err := timedSetup(func(int) (*daemonEnv, error) { return setupDaemon(sz) }, (*daemonEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	scheds, digest := env.schedules(o.seed)
	rep.fingerprint = "daemon-schedule-sha256:" + digest

	// Ground truth: each connection's reads are served by its own node.
	var delaySum float64
	var delayN int
	conns := make([]*conn, len(env.conns))
	for i := range conns {
		c := &conn{id: i, env: env, node: env.nodes[i], c: env.conns[i], ops: scheds[i],
			coords: map[int][]float64{}, acked: make([]uint64, sz.objectsPerConn),
			putsSinceRound: sz.objectsPerConn, // the setup puts
			detLeft:        sz.detRounds, inject: o.inject.wrongVersion && i == 0}
		for j := range c.acked {
			c.acked[j] = 1
		}
		for _, op := range c.ops {
			c.coords[op.client] = env.w.Coords[op.client].Pos
			if !op.put {
				delaySum += env.w.Matrix.RTT(op.client, env.dc[i])
				delayN++
			}
		}
		conns[i] = c
	}
	rep.e2e["access_delay_ms"] = delaySum / float64(delayN)

	deadline := time.Now().Add(seconds(o.seconds))
	ph, tph := &daemonResult{}, &daemonResult{spans: newSpans()}
	var wall time.Duration
	var rt runtimeSample
	var tt transportTotal
	summed0 := summarized(env)
	if !o.trace {
		minRounds := sz.detRounds
		if !o.tiny {
			minRounds = max(minRounds, (tailSamples(0.75)+len(conns)-1)/len(conns))
		}
		rt0 := readRuntime()
		wall = daemonPhase(ph, conns, deadline, minRounds)
		rt = readRuntime().since(rt0)
	} else {
		slice := seconds(o.seconds / 10)
		err = alternate(deadline, func(traced bool) error {
			if traced {
				s0 := transportTotals(env)
				daemonPhase(tph, conns, time.Now().Add(slice), 1)
				tt.add(transportTotals(env).since(s0))
				return nil
			}
			rt0 := readRuntime()
			wall += daemonPhase(ph, conns, time.Now().Add(slice), sz.detRounds)
			rt.add(readRuntime().since(rt0))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	addConnPhase(rep, ph)
	if got := summarized(env) - summed0; got != ph.gets+tph.gets {
		rep.fail(ph.gets, "daemon_summarized_accesses_total grew by %d for %d gets", got, ph.gets+tph.gets)
	}
	if err := setLoopMetrics(rep, o, ph.roundMs, setupS); err != nil {
		return nil, err
	}
	ops := ph.gets + ph.puts
	// Connections run side by side: the system's rate is the sum of
	// each connection's median window rate.
	for i := range ph.opsRate {
		rep.e2e["ops_per_s"] += median(ph.opsRate[i])
		rep.e2e["ingest_accesses_per_s"] += median(ph.getsRate[i])
	}
	rep.e2e["summary_bytes_per_epoch"] = mean(ph.summaryBytes)
	for _, q := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"daemon.get_ms_p50", ph.getMs, 0.5}, {"daemon.get_ms_p99", ph.getMs, 0.99},
		{"daemon.put_ms_p50", ph.putMs, 0.5}, {"daemon.put_ms_p99", ph.putMs, 0.99}} {
		v, err := percentile(q.xs, q.q)
		if err != nil && !o.tiny {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		rep.layer[q.name] = v
		rep.note("%-40s %14.6g ms (n=%d)", q.name[len("daemon."):], v, len(q.xs))
	}
	rep.layer["transport.rtt_us_p50"] = median(ph.rttUs)
	rep.layer["transport.allocs_per_call"] = float64(rt.allocObjects) / float64(ops+3*ph.rounds)
	rep.layer["go.alloc_bytes_per_epoch"] = float64(rt.allocBytes) / float64(ph.rounds)
	rep.layer["go.gc_cpu_fraction"] = rt.gcFraction()
	rep.layer["daemon.summary_wire_bytes"] = mean(ph.summaryBytes)
	rep.note("daemon-rw: %d nodes, %d gets + %d puts untraced in %.2fs, %d rounds", len(conns), ph.gets, ph.puts, wall.Seconds(), ph.rounds)
	if !o.trace {
		return rep, nil
	}

	addConnPhase(rep, tph)
	t := tph.spans
	rep.spans = t
	if tt.requests > 0 {
		rep.layer["transport.bytes_per_call"] = float64(tt.bytes) / float64(tt.requests)
	}
	rep.layer["transport.server_handle_us_p50"] = transportTotals(env).handleP50Ms * 1e3
	us := func(name string) float64 { return median(durationsOf(t.list, name)) / 1e3 }
	rep.layer["daemon.micros_rpc_us_p50"] = us("daemon.Micros")
	rep.layer["daemon.decay_rpc_us_p50"] = us("daemon.Decay")
	rep.layer["replog.replicate_rpc_us_p50"] = us("replog.Replicate")
	rep.layer["metrics.history_sample_us_p50"] = us("metrics.History.Sample")
	rep.layer["slo.evaluate_us_p50"] = us("slo.Evaluate")
	if tph.rounds > 0 {
		rep.layer["replog.entries_per_replicate"] = float64(tph.puts) / float64(tph.rounds)
	}
	getP50 := rep.layer["daemon.get_ms_p50"]
	traceRatios(rep, "daemon-rw", t, "daemon.Get", getP50, getP50, "daemon.Get")
	rep.note("daemon-rw: %d gets + %d puts traced, %d rounds", tph.gets, tph.puts, tph.rounds)
	return rep, nil
}

func addConnPhase(rep *report, ph *daemonResult) {
	rep.attempted += ph.attempted
	for _, p := range ph.problems {
		rep.fail(0, "%s", p)
	}
	rep.failed += ph.failed
}

func summarized(env *daemonEnv) int64 {
	var n int64
	for _, node := range env.nodes {
		n += node.Metrics().Counter("daemon_summarized_accesses_total").Value()
	}
	return n
}

type transportTotal struct {
	requests, bytes int64
	handleP50Ms     float64
}

func (t transportTotal) since(a transportTotal) transportTotal {
	return transportTotal{requests: t.requests - a.requests, bytes: t.bytes - a.bytes}
}

func (t *transportTotal) add(d transportTotal) {
	t.requests += d.requests
	t.bytes += d.bytes
}

// transportTotals sums the daemons' transport-server counters and
// averages their handler-latency medians.
func transportTotals(env *daemonEnv) transportTotal {
	var t transportTotal
	for _, node := range env.nodes {
		s := node.Snapshot()
		t.requests += s.Counters["transport_server_requests_total"]
		t.bytes += s.Counters["transport_server_bytes_in_total"] + s.Counters["transport_server_bytes_out_total"]
		t.handleP50Ms += s.Histograms["transport_server_handle_ms"].P50 / float64(len(env.nodes))
	}
	return t
}
