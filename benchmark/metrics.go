package main

// metricDef is one named metric: the names, units and directions here are
// the ones BENCHMARK.json lists (bench_test.go holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound (end-to-end only) is the share of the base's value a candidate
	// may be worse by when -compare holds two suites of the same seed on
	// the same host against each other. These are the issue's bounds; a
	// pair whose quartile spread exceeds one is reported unresolved.
	Bound float64
	// AcrossSeeds (end-to-end only) is BENCHMARK.json's bound, which is
	// held against ten runs at ten different seeds: max(Bound, three times
	// the widest interquartile spread two such sets showed on a 2-vCPU
	// host), capped at the 0.25 a bound may be. A run's seed moves the
	// loss at a fixed epoch by 12 % (fullbatch-spmm, see its epoch count)
	// and, through the permutation, the epoch time by up to 10.6 %
	// (fullbatch-gemm), so the issue's 1 % and 10 % would fail a commit
	// against itself there. 0: the metric is not a BENCHMARK.json row.
	AcrossSeeds float64

	// Pooled marks a metric only the suite can report, from the epochs of
	// all processes of a workload together.
	Pooled bool
	// FullBatchOnly marks a per-layer metric that is undefined on the
	// sampled workloads: the result line, which must carry every name,
	// has 0 there, and the suite leaves the row out.
	FullBatchOnly bool
}

// definedOn reports whether the metric exists on workload w.
func (d metricDef) definedOn(w workload) bool { return !(d.FullBatchOnly && w.Sampled) }

// endToEnd lists what a user of the trainers sees, per workload. The
// eighth end-to-end number, failed_ops_share (bound 0), is the result
// line's failed/attempted: it is always 0, so it cannot be a row here.
// sim_epoch_s and loss_final repeat exactly for a fixed seed (the suite
// counts a mismatch as a failed op). Simulated seconds carry their own
// unit so they are never read as host time.
var endToEnd = []metricDef{
	{Name: "epoch_wall_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, AcrossSeeds: 0.25},
	{Name: "epoch_wall_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, Pooled: true},
	{Name: "vertices_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, AcrossSeeds: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.20, AcrossSeeds: 0.25},
	{Name: "sim_epoch_s", Unit: "sim_s", Better: "lower", Bound: 0.01, AcrossSeeds: 0.01},
	{Name: "loss_final", Unit: "nats", Better: "lower", Bound: 0.01, AcrossSeeds: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, AcrossSeeds: 0.10},
}

// perRun is the part of endToEnd one process reports: the result line's
// metrics at -trace 0 and BENCHMARK.json's end_to_end rows.
var perRun = func() []metricDef {
	var defs []metricDef
	for _, d := range endToEnd {
		if !d.Pooled {
			defs = append(defs, d)
		}
	}
	return defs
}()

// perLayer lists the traced run's numbers, layer = repo package. A layer
// that does no work on a workload (the sampler on the full-batch ones,
// broadcasts on the sampled ones) measures 0 there.
var perLayer = []metricDef{
	// Traced pass: wall-clock per epoch inside recorded task closures.
	{Name: "core.traced_epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmm_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmm_tasks", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_tasks", Unit: "count", Better: "lower"},
	{Name: "tensor.activation_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.loss_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.adam_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.calls", Unit: "count", Better: "lower"},
	{Name: "sample.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.extract_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.tasks", Unit: "count", Better: "lower"},
	{Name: "sim.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.replay_speedup", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	// Exact counts from comm.Meter and EpochStats; repeat exactly per seed.
	{Name: "comm.broadcast_words", Unit: "words", Better: "lower"},
	{Name: "comm.allreduce_words", Unit: "words", Better: "lower"},
	{Name: "sample.gather_hit_words", Unit: "words", Better: "higher"},
	{Name: "sample.gather_miss_words", Unit: "words", Better: "lower"},
	{Name: "sample.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.spmm_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.gemm_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.comm_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.sample_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.extract_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.overlap_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.p1_epoch_s", Unit: "sim_s", Better: "lower", FullBatchOnly: true},
	{Name: "sim.speedup_p4_over_p1", Unit: "ratio", Better: "higher", FullBatchOnly: true},
	// Set-up split; the three sum to one set-up.
	{Name: "gen.synthesize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_trainer_ms", Unit: "ms", Better: "lower"},
	{Name: "core.first_epoch_ms", Unit: "ms", Better: "lower"},
	// Direct calls into layer functions on operands cut from the graph.
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_ta_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_tb_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "sparse.spmm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "sparse.spmm_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "sparse.transpose_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.build_blocks_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sample.sampled_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sample.frontier_frac", Unit: "ratio", Better: "lower"},
	{Name: "sample.gather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_save_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	// Go runtime over the untraced pass.
	{Name: "runtime.alloc_mb_per_epoch", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_epoch", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_epoch", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number, in the shape the result line carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and hands them out in definition
// order; a name outside defs is a programming error.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not defined")
}

// report returns every defined metric; one never set is a programming
// error, so a workload cannot silently drop a row.
func (m *metricSet) report() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}
