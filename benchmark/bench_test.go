package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mggcn"
)

func datasetHash(t *testing.T, ds *mggcn.Dataset) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return sha256.Sum256(buf.Bytes())
}

// A workload is one graph whatever the run's seed; the seed decides what
// the trainer draws on it.
func TestSeedDeterminesInputs(t *testing.T) {
	w := verifyWorkloads[0]
	a, b := datasetHash(t, w.synthesize()), datasetHash(t, w.synthesize())
	other := datasetHash(t, mggcn.SynthesizeDataset(w.Name, w.N, w.Deg, w.Feat, classes, datasetSeed+1, false))
	if a != b {
		t.Error("one workload gave two different datasets")
	}
	if a == other {
		t.Error("dataset seeds 1 and 2 gave the same dataset")
	}
	firstLoss := func(seed uint64) float64 {
		o := &ops{}
		tr, err := w.newPublic(w.synthesize(), seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runEpochs(o, tr, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.Losses[0]
	}
	if l7, again := firstLoss(7), firstLoss(7); !sameBits(l7, again) {
		t.Errorf("seed 7 gave first-epoch losses %v and %v", l7, again)
	}
	if l7, l8 := firstLoss(7), firstLoss(8); sameBits(l7, l8) {
		t.Errorf("seeds 7 and 8 gave the same first-epoch loss %v", l7)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentilesAndPooling(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 120 … 1: helpers must not assume order
	}
	if got := median(xs); got != 60.5 {
		t.Errorf("median = %v, want 60.5", got)
	}
	if got := percentile(xs, 90); got != 108 {
		t.Errorf("p90 = %v, want 108", got)
	}
	if got := percentile(xs, 100); got != 120 {
		t.Errorf("p100 = %v, want 120", got)
	}
	// Three processes of 40 epochs pool to a p90 with twelve samples
	// beyond it; one process alone has four and reports none.
	if got := samplesBeyond(120, 90); got != 12 {
		t.Errorf("samplesBeyond(120, 90) = %d, want 12", got)
	}
	if got := samplesBeyond(40, 90); got != 4 {
		t.Errorf("samplesBeyond(40, 90) = %d, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// The pooled p90 is the percentile of the pool; its quartiles are those
	// of the processes' own percentiles.
	s, ok := pooledP90("ms", [][]float64{xs[:40], xs[40:80], xs[80:]})
	if !ok || s.Value != 108 || len(s.Values) != 3 || s.Values[0] != 116 || s.Values[2] != 36 {
		t.Errorf("pooledP90 of three processes = %+v, %v", s, ok)
	}
	if _, ok := pooledP90("ms", [][]float64{xs[:6], xs[6:12], xs[12:18]}); ok {
		t.Error("18 pooled epochs gave a p90")
	}
}

func TestTimedEpochsScaleWithSeconds(t *testing.T) {
	w := workload{Epochs: 6}
	for seconds, want := range map[float64]int{10: 6, 5: 3, 20: 12, 1: 1, 0.1: 1} {
		if got := w.timedEpochs(seconds); got != want {
			t.Errorf("timedEpochs(%v) = %d, want %d", seconds, got, want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		// BENCHMARK.json's bound is never tighter than the same-seed one,
		// and a pooled metric is not one of its rows.
		if d.Pooled != (d.AcrossSeeds == 0) || (!d.Pooled && (d.AcrossSeeds < d.Bound || d.AcrossSeeds > 0.25)) {
			t.Errorf("metric %s: bound across seeds %v, same-seed bound %v, pooled %v", d.Name, d.AcrossSeeds, d.Bound, d.Pooled)
		}
	}
	// setup_s carries the largest bound.
	for _, d := range perRun {
		if d.AcrossSeeds > 0.25 || (d.Name == "setup_s" && d.AcrossSeeds != 0.25) {
			t.Errorf("metric %s: bound across seeds %v", d.Name, d.AcrossSeeds)
		}
	}
}

// BENCHMARK.json and the runner must name the same workloads and metrics,
// with the same units and directions, and the bounds that hold across seeds.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the runner %q: %q", i, got, w.Name, w.Why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the runner", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the runner %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.AcrossSeeds) {
				t.Errorf("%s metric %s: bound mismatch", kind, d.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, perRun, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// scaled shrinks a workload's graph and epoch counts for the smoke test.
func (w workload) scaled(by int) workload {
	w.N /= by
	if w.Deg > float64(w.N)/8 {
		w.Deg = float64(w.N) / 8
	}
	w.Epochs, w.TraceEpochs, w.UntracedEpochs, w.SerialEpochs = 2, 2, 2, 1
	return w
}

// TestSmoke drives both kinds of run over every workload at an eighth of
// its size for two epochs: every metric is measured, every check passes,
// and the result line has exactly the contract's keys.
func TestSmoke(t *testing.T) {
	start := time.Now()
	o := &ops{}
	for _, full := range workloads {
		w := full.scaled(8)
		res, err := runTimed(o, w, 3, 10, time.Now())
		if err != nil {
			t.Fatalf("%s: end-to-end run: %v", w.Name, err)
		}
		if len(res.EpochMS) != w.Epochs {
			t.Errorf("%s: %d timed epochs, want %d", w.Name, len(res.EpochMS), w.Epochs)
		}
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		layers, err := runTraced(o, w, 3, tracePath)
		if err != nil {
			t.Fatalf("%s: traced run: %v", w.Name, err)
		}
		for name, v := range res.Metrics.report() {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, name, v.Value)
			}
		}
		rep := layers.report()
		for name, v := range rep {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
				t.Errorf("%s: per-layer metric %s = %v", w.Name, name, v.Value)
			}
		}
		// The spans, the scheduler and the remainder add up to the epoch.
		parts := rep["core.self_ms"].Value + rep["sim.schedule_ms"].Value
		for _, n := range []string{"sparse.spmm_busy_ms", "tensor.gemm_busy_ms", "tensor.activation_busy_ms", "nn.loss_busy_ms",
			"nn.adam_busy_ms", "comm.busy_ms", "sample.busy_ms", "sample.extract_busy_ms"} {
			parts += rep[n].Value
		}
		if wall := rep["core.traced_epoch_ms"].Value; math.Abs(parts-wall) > 1e-6*wall {
			t.Errorf("%s: layers sum to %v ms of a %v ms traced epoch", w.Name, parts, wall)
		}
		if w.Sampled != (rep["sample.busy_ms"].Value > 0) {
			t.Errorf("%s: sample.busy_ms = %v", w.Name, rep["sample.busy_ms"].Value)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w.Name, err)
		}
		if want := int(rep["sim.tasks"].Value)*w.TraceEpochs + w.TraceEpochs; len(trace.TraceEvents) != want {
			t.Errorf("%s: %d trace events, want %d", w.Name, len(trace.TraceEvents), want)
		}
	}
	verify(o, 3)
	if o.failed != 0 || o.attempted == 0 {
		t.Errorf("%d of %d ops failed: %v", o.failed, o.attempted, o.errs)
	}
	line, err := json.Marshal(resultLine{Correct: true, Attempted: o.attempted, Metrics: newMetricSet(nil).report()})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line keys: %s", line)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke took %v, want under 20 s", d)
	}
}

func TestVerdictAndCompare(t *testing.T) {
	lower := metricDef{Name: "epoch_wall_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "vertices_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(c float64) summary { return summarize("ms", []float64{c * 0.99, c, c * 1.01}) }
	noisy := func(c float64) summary { return summarize("ms", []float64{c * 0.7, c, c * 1.3}) }
	for _, tc := range []struct {
		d          metricDef
		base, cand summary
		want       string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "REGRESSED"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(85), "REGRESSED"},
		{higher, steady(100), steady(120), "ok"},
		{lower, noisy(100), noisy(102), "unresolved"},
		{lower, noisy(100), steady(20), "ok"}, // every candidate run beats every base run
		{lower, noisy(100), noisy(150), "REGRESSED"},
	} {
		if got := verdict(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.base.Values, tc.cand.Values, got, tc.want)
		}
	}

	// Files as the suite writes them: epoch_wall_ms_p90 on the full-batch
	// workloads only. epochMS sets every workload's median epoch, p90MS
	// the pooled tail where there is one.
	file := func(name string, prov provenance, epochMS, p90MS float64, failed int) string {
		res := resultFile{Provenance: prov, Seconds: 10, Rounds: suiteRounds, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{EndToEnd: map[string]summary{}, Attempted: 100, Failed: failed}
			for _, d := range perRun {
				wr.EndToEnd[d.Name] = steady(100)
			}
			wr.EndToEnd["epoch_wall_ms_p50"] = steady(epochMS)
			if !w.Sampled {
				wr.EndToEnd["epoch_wall_ms_p90"] = steady(p90MS)
			}
			res.Workloads[w.Name] = wr
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := provenance{KernelImpl: "avx2", NumCPU: 2, Seed: 1}
	base := file("base.json", host, 100, 120, 0)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, file("same.json", host, 104, 125, 0)); err != nil || regressed {
		t.Errorf("within the bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if got := strings.Count(out.String(), "epoch_wall_ms_p90"); got != 2 {
		t.Errorf("epoch_wall_ms_p90 compared on %d workloads, want the 2 full-batch ones\n%s", got, out.String())
	}
	if regressed, err := compareFiles(&out, base, file("slow.json", host, 150, 120, 0)); err != nil || !regressed {
		t.Errorf("50 %% slower: regressed=%v err=%v", regressed, err)
	}
	if regressed, err := compareFiles(&out, base, file("tail.json", host, 100, 150, 0)); err != nil || !regressed {
		t.Errorf("25 %% longer tail at the same median: regressed=%v err=%v", regressed, err)
	}
	if regressed, err := compareFiles(&out, base, file("failing.json", host, 100, 120, 1)); err != nil || !regressed {
		t.Errorf("a failed op: regressed=%v err=%v", regressed, err)
	}
	for what, prov := range map[string]provenance{
		"kernel_impl": {KernelImpl: "scalar", NumCPU: 2, Seed: 1},
		"numcpu":      {KernelImpl: "avx2", NumCPU: 8, Seed: 1},
		"seed":        {KernelImpl: "avx2", NumCPU: 2, Seed: 2},
	} {
		if _, err := compareFiles(&out, base, file(what+".json", prov, 100, 120, 0)); err == nil {
			t.Errorf("files with different %s were compared", what)
		}
	}
}
