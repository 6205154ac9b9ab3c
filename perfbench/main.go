// Command perfbench times georep's online placement loop end to end and
// layer by layer on three seeded workloads: stream-1m (one object, a
// million-client access stream through the sharded ingest path),
// fleet-10k (ten thousand objects through the multi-object placement
// service) and daemon-rw (in-process daemons on loopback under a
// closed-loop get/put mix). See README.md in this directory.
//
// Usage:
//
//	perfbench --workload stream-1m --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a run whose second half records spans around every timed
// call. The process exits non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of georep sees; every workload reports
// all of them (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"ingest_accesses_per_s", "1/s"},
	{"epoch_ms_p50", "ms"},
	{"epoch_ms_p75", "ms"},
	{"access_delay_ms", "ms"},
	{"summary_bytes_per_epoch", "B"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the per-layer metrics of the traced run. A layer a
// workload bypasses reports 0 there.
var perLayer = []metricDef{
	{"workload.next_ns_per_access", "ns"},
	{"replica.record_batch_ns_per_access", "ns"},
	{"placement.record_ns_per_access", "ns"},
	{"replica.begin_epoch_us_p50", "us"},
	{"replica.propose_us_p50", "us"},
	{"replica.complete_epoch_us_p50", "us"},
	{"replica.moved_replicas_per_epoch", "count"},
	{"cluster.kmeans_iterations_per_epoch", "count"},
	{"ledger.append_us_p50", "us"},
	{"ledger.bytes_per_record", "B"},
	{"placement.groups_per_epoch", "count"},
	{"placement.solves_per_epoch", "count"},
	{"placement.drift_skips_per_epoch", "count"},
	{"placement.refined_per_epoch", "count"},
	{"placement.bound_hits_per_epoch", "count"},
	{"placement.displaced_per_epoch", "count"},
	{"provenance.counterfactuals_per_epoch", "count"},
	{"go.alloc_bytes_per_epoch", "B"},
	{"go.gc_cpu_fraction", "ratio"},
	{"transport.rtt_us_p50", "us"},
	{"transport.bytes_per_call", "B"},
	{"transport.allocs_per_call", "count"},
	{"transport.server_handle_us_p50", "us"},
	{"daemon.get_ms_p50", "ms"},
	{"daemon.get_ms_p99", "ms"},
	{"daemon.put_ms_p50", "ms"},
	{"daemon.put_ms_p99", "ms"},
	{"daemon.micros_rpc_us_p50", "us"},
	{"daemon.decay_rpc_us_p50", "us"},
	{"daemon.summary_wire_bytes", "B"},
	{"replog.replicate_rpc_us_p50", "us"},
	{"replog.entries_per_replicate", "count"},
	{"metrics.history_sample_us_p50", "us"},
	{"slo.evaluate_us_p50", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.blocking_self_ratio", "ratio"},
}

// setupRepeats is how many times a run builds its workload's state; the
// median build time is setup_s.
const setupRepeats = 5

type opts struct {
	seed    int64
	seconds float64
	trace   bool
	tmp     string // scratch directory for ledgers, removed at exit
	tiny    bool   // self-test sizes
	inject  inject
}

// inject plants faults the correctness checks must catch; self-tests
// set it, runs never do.
type inject struct {
	wrongVersion     bool // daemon-rw: a node's object moves behind the client's back
	capacityOverflow bool // fleet-10k: the recount sees one slot too many
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	problems          []string
	e2e, layer        map[string]float64
	notes             []string // extra human-readable result lines
	fingerprint       string
	spans             *spans
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts n failed operations under one check message.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*opts) (*report, error){
	"stream-1m": runStream,
	"fleet-10k": runFleet,
	"daemon-rw": runDaemon,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "stream-1m, fleet-10k or daemon-rw")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement length")
	traceOn := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, results and scratch ledgers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload stream-1m|fleet-10k|daemon-rw, --seconds > 0, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	o := &opts{seed: *seed, seconds: *seconds, trace: *traceOn == 1, tmp: tmp}
	rep, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = rss

	meta := map[string]any{
		"workload":    *name,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *traceOn,
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"fingerprint": rep.fingerprint,
	}
	metaJSON, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "meta %s\n", metaJSON)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	errorRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(stdout, "%-40s %14.6g %s\n", "error_ratio", errorRatio, "ratio")
	e2e, err := collect(endToEnd, rep.e2e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	layer, err := collect(perLayer, rep.layer)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !o.trace {
		printMetrics(stdout, endToEnd, e2e)
	} else {
		printMetrics(stdout, perLayer, layer)
	}

	if o.trace && rep.spans != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, rep.spans.list, 200_000); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d recorded, written to %s\n", len(rep.spans.list), path)
	}
	full, _ := json.Marshal(map[string]any{"meta": meta, "end_to_end": e2e, "per_layer": layer,
		"attempted": rep.attempted, "failed": rep.failed, "error_ratio": errorRatio})
	if err := os.WriteFile(filepath.Join(*out, fmt.Sprintf("result-%s-trace%d.json", *name, *traceOn)), full, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	final := map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   e2e,
	}
	if o.trace {
		final["metrics"] = layer
	}
	line, _ := json.Marshal(final) // finite floats, ints and strings: cannot fail
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// collect attaches units to the defined metrics, refusing a value that
// is not a finite number (JSON cannot carry it).
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, vals[d.name].Value, d.unit)
	}
}

// timedSetup runs build setupRepeats times, keeping the last result, and
// returns the median wall time in seconds. Earlier results are released
// with drop.
func timedSetup[T any](build func(i int) (T, error), drop func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
			// Return the dropped state to the OS now, so peak_rss_mb
			// does not depend on when the scavenger would have.
			debug.FreeOSMemory()
		}
		last = v
	}
	return last, median(times), nil
}

// alternate runs untraced and traced slices of work in turn until the
// deadline, at least two of each, so both see the same mix of program
// states and the traced-to-untraced ratio isolates the span cost.
func alternate(deadline time.Time, slice func(traced bool) error) error {
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		if err := slice(i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// traceRatios sets trace.overhead_ratio, the traced median of the
// workload's unit of work (spans named unit) over its untraced median,
// and trace.blocking_self_ratio, the median per-group sum of the
// blocking spans' self times over the untraced reference median.
func traceRatios(rep *report, name string, t *spans, unit string, untracedUnitMs, untracedRefMs float64, blocking ...string) {
	rep.layer["trace.overhead_ratio"] = median(durationsOf(t.list, unit)) / 1e6 / untracedUnitMs
	b := median(groupSelfSums(t.list, selfTimes(t.list), blocking...)) / 1e6
	rep.layer["trace.blocking_self_ratio"] = b / untracedRefMs
	rep.note("%s traced: blocking-path self time p50 %.4f ms vs untraced p50 %.4f ms", name, b, untracedRefMs)
}

// tailSamples is the fewest samples for which percentile reports the
// q tail.
func tailSamples(q float64) int {
	n := minBeyond
	for n-int(math.Ceil(q*float64(n))) < minBeyond {
		n++
	}
	return n
}

// setLoopMetrics sets setup_s and the epoch percentiles. In a traced run
// the untraced half may be too short for the tail; it is not reported
// there, so a missing tail is only an error in an untraced run.
func setLoopMetrics(rep *report, o *opts, epochMs []float64, setupS float64) error {
	rep.e2e["setup_s"] = setupS
	p50, err := percentile(epochMs, 0.5)
	if err != nil {
		return err
	}
	rep.e2e["epoch_ms_p50"] = p50
	p75, err := percentile(epochMs, 0.75)
	if err != nil && !o.trace && !o.tiny {
		return err
	}
	rep.e2e["epoch_ms_p75"] = p75
	return nil
}
