package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/georep/georep/internal/workload"
)

func TestPercentileReportsTailOnlyWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, true},
		{19, 0.5, 10, true},
		{100, 0.9, 90, true}, // 10 beyond
		{99, 0.9, 0, false},  // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{tailSamples(0.75), 0.75, 30, true},
		{tailSamples(0.75) - 1, 0.75, 0, false},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
	if tailSamples(0.75) != 40 {
		t.Errorf("tailSamples(0.75) = %d, want 40", tailSamples(0.75))
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	list := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},
		{Name: "grandchild", Parent: 1, Start: 15, End: 25},
		{Name: "other", Parent: -1, Start: 200, End: 210},
	}
	self := selfTimes(list)
	// root: covered [10,60] and [90,100] = 60 of 100.
	want := []int64{40, 20, 30, 30, 10, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", list[i].Name, self[i], want[i])
		}
	}
	list[4].Group, list[1].Group = 1, 1
	sums := groupSelfSums(list, self, "a", "grandchild")
	if len(sums) != 1 || sums[0] != 30 {
		t.Errorf("groupSelfSums = %v, want [30]", sums)
	}
}

func TestSpansMergeRebasesParents(t *testing.T) {
	a, b := newSpans(), newSpans()
	a.end(a.begin("x", 0, -1))
	r := b.begin("root", 1, -1)
	b.end(b.begin("child", 1, r))
	b.end(r)
	a.merge(b)
	if len(a.list) != 3 || a.list[2].Parent != 1 || a.list[1].Parent != -1 {
		t.Fatalf("merged spans %+v", a.list)
	}
	var none *spans
	none.end(none.begin("ignored", 0, -1)) // a nil recorder records nothing
}

func TestStreamFingerprintIsStreamDigest(t *testing.T) {
	o := &opts{seed: 9, tiny: true}
	env, err := setupStream(o, streamSizes(true), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.led.Close()
	_, _, digest, _, err := env.generate(o.seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := workload.NewStream(env.spec, env.clients)
	if err != nil {
		t.Fatal(err)
	}
	st.Seed(o.seed*41 + 1)
	want, err := workload.StreamDigest(st, env.sz.schedule)
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Fatalf("fingerprint %s, StreamDigest %s", digest, want)
	}
}

func tinyRun(t *testing.T, wl func(*opts) (*report, error), traced bool, inj inject) *report {
	t.Helper()
	rep, err := wl(&opts{seed: 3, seconds: 0.3, trace: traced, tmp: t.TempDir(), tiny: true, inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 {
		t.Fatal("nothing attempted")
	}
	return rep
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, wl, traced, inject{})
			if rep.failed != 0 {
				t.Errorf("%s trace=%v: %d failed: %v", name, traced, rep.failed, rep.problems)
			}
			for _, m := range []string{"ops_per_s", "ingest_accesses_per_s", "epoch_ms_p50", "access_delay_ms", "summary_bytes_per_epoch"} {
				if rep.e2e[m] <= 0 {
					t.Errorf("%s trace=%v: %s = %g", name, traced, m, rep.e2e[m])
				}
			}
			if traced && rep.layer["trace.overhead_ratio"] <= 0 {
				t.Errorf("%s: no trace.overhead_ratio", name)
			}
		}
	}
}

func TestInjectedFaultsAreCaught(t *testing.T) {
	rep := tinyRun(t, runDaemon, false, inject{wrongVersion: true})
	if rep.failed == 0 || !strings.Contains(strings.Join(rep.problems, "\n"), "last acked") {
		t.Errorf("wrong version not caught: failed=%d %v", rep.failed, rep.problems)
	}
	rep = tinyRun(t, runFleet, false, inject{capacityOverflow: true})
	if rep.failed == 0 || !strings.Contains(strings.Join(rep.problems, "\n"), "capacity") {
		t.Errorf("capacity overflow not caught: failed=%d %v", rep.failed, rep.problems)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and the
// benchmark definition at the repository root in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, table has %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, table %s %s", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
