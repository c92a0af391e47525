package fault

import (
	"errors"
	"math"
	"testing"
	"time"

	"mggcn/internal/comm"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

func TestCrashFailsDeviceDeterministically(t *testing.T) {
	run := func() (err error, stats Stats) {
		in := New(Plan{Crash: &CrashSpec{Device: 1, OnLabel: "spmm", After: 1}})
		g := sim.NewGraph(sim.DGXV100(), 2)
		g.Fault = in
		var ran []string
		prev := -1
		for i, label := range []string{"spmm fw", "spmm fw", "gemm"} {
			var deps []int
			if prev >= 0 {
				deps = []int{prev}
			}
			id := g.AddCompute(1, sim.KindSpMM, label, i, 1, true, deps...)
			l := label
			g.BindShaped(id, nil, nil, func() { ran = append(ran, l) })
			prev = id
		}
		err = g.Execute(1)
		if len(ran) != 1 || ran[0] != "spmm fw" {
			t.Fatalf("ran %v, want exactly the first spmm (After=1 skips one match)", ran)
		}
		return err, in.Stats()
	}
	err, stats := run()
	var lost *sim.DeviceLostError
	if !errors.As(err, &lost) || lost.Device != 1 {
		t.Fatalf("Execute = %v, want DeviceLostError{1}", err)
	}
	if stats.Crashes != 1 {
		t.Fatalf("stats.Crashes = %d, want 1", stats.Crashes)
	}
	// Determinism: a second identical run crashes identically.
	err2, _ := run()
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second run failed differently: %v vs %v", err2, err)
	}
}

func TestCrashedDeviceStaysDeadUntilObserveRemoval(t *testing.T) {
	in := New(Plan{Crash: &CrashSpec{Device: 0}})
	g := sim.NewGraph(sim.DGXV100(), 2)
	g.Fault = in
	a := g.AddCompute(0, sim.KindGeMM, "first", -1, 1, false)
	g.BindShaped(a, nil, nil, func() {})
	if err := g.Execute(1); err == nil {
		t.Fatal("first task survived a crash plan with After=0")
	}
	// A fresh graph on the same machine: the device is still dead.
	g2 := sim.NewGraph(sim.DGXV100(), 2)
	g2.Fault = in
	b := g2.AddCompute(0, sim.KindGeMM, "again", -1, 1, false)
	g2.BindShaped(b, nil, nil, func() {})
	if err := g2.Execute(1); err == nil {
		t.Fatal("crashed device came back without ObserveRemoval")
	}
	// After the trainer removed the device, index 0 is a renumbered
	// survivor and must run normally.
	in.ObserveRemoval(0)
	g3 := sim.NewGraph(sim.DGXV100(), 1)
	g3.Fault = in
	c := g3.AddCompute(0, sim.KindGeMM, "survivor", -1, 1, false)
	ran := false
	g3.BindShaped(c, nil, nil, func() { ran = true })
	if err := g3.Execute(1); err != nil || !ran {
		t.Fatalf("renumbered survivor failed after ObserveRemoval: err=%v ran=%v", err, ran)
	}
}

func TestStragglerDelaysWithoutChangingResults(t *testing.T) {
	in := New(Plan{Straggler: &StragglerSpec{Device: 0, Delay: time.Millisecond, Every: 2}})
	g := sim.NewGraph(sim.DGXV100(), 1)
	g.Fault = in
	sum := 0
	prev := -1
	for i := 0; i < 4; i++ {
		var deps []int
		if prev >= 0 {
			deps = []int{prev}
		}
		id := g.AddCompute(0, sim.KindGeMM, "gemm", -1, 1, false, deps...)
		v := i + 1
		g.BindShaped(id, nil, nil, func() { sum += v })
		prev = id
	}
	if err := g.Execute(2); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10 (straggler must be latency-only)", sum)
	}
	if got := in.Stats().Delays; got != 2 {
		t.Fatalf("stats.Delays = %d, want 2 (every 2nd of 4 tasks)", got)
	}
}

func TestPoisonFillsDeclaredWritesWithNaN(t *testing.T) {
	in := New(Plan{Poison: &PoisonSpec{Label: "spmm fw", Stage: 1, Device: 0, Occurrence: 1}})
	g := sim.NewGraph(sim.DGXV100(), 1)
	g.Reg = sim.NewBufRegistry()
	g.Fault = in

	out := tensor.NewDense(2, 2)
	out.Buf = int(g.Reg.Register("h0"))
	g.Reg.Track(sim.BufID(out.Buf), out.Data)
	clean := tensor.NewDense(2, 2)
	clean.Buf = int(g.Reg.Register("h1"))
	g.Reg.Track(sim.BufID(clean.Buf), clean.Data)

	a := g.AddCompute(0, sim.KindSpMM, "spmm fw", 0, 1, true)
	g.BindShaped(a, nil, sim.ShapesOf(clean), func() { clean.Fill(1) })
	b := g.AddCompute(0, sim.KindSpMM, "spmm fw", 1, 1, true, a)
	g.BindShaped(b, nil, sim.ShapesOf(out), func() { out.Fill(1) })
	if err := g.Execute(1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !math.IsNaN(float64(out.Data[0])) || !math.IsNaN(float64(out.Data[3])) {
		t.Fatalf("poisoned buffer = %v, want all NaN", out.Data)
	}
	if clean.Data[0] != 1 {
		t.Fatalf("stage-0 buffer corrupted: %v (poison must match stage exactly)", clean.Data)
	}
	if got := in.Stats().Poisons; got != 1 {
		t.Fatalf("stats.Poisons = %d, want 1", got)
	}
}

func TestTransientFaultsAreRetriedAway(t *testing.T) {
	runBroadcast := func(in *Injector) ([]float32, error) {
		g := sim.NewGraph(sim.DGXV100(), 2)
		if in != nil {
			g.Fault = in
		}
		src := tensor.NewDense(2, 2)
		src.Fill(3)
		dst := []*tensor.Dense{src, tensor.NewDense(2, 2)}
		comm.New(g).Broadcast(0, src, dst, "bcast h", 0)
		err := g.Execute(1)
		return dst[1].Data, err
	}

	want, err := runBroadcast(nil)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	// Failures below the executor's budget: retried away, bit-identical.
	in := New(Plan{Seed: 7, Transient: &TransientSpec{Every: 1, Failures: 2}})
	got, err := runBroadcast(in)
	if err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retried run diverged at %d: %v vs %v", i, got, want)
		}
	}
	if in.Stats().TransientFailures != 2 {
		t.Fatalf("TransientFailures = %d, want 2", in.Stats().TransientFailures)
	}

	// Failures at the budget: the collective gives up.
	in2 := New(Plan{Seed: 7, Transient: &TransientSpec{Every: 1, Failures: 4}})
	_, err = runBroadcast(in2)
	var give *sim.GiveUpError
	if !errors.As(err, &give) || give.Attempts != 4 {
		t.Fatalf("exhausted run = %v, want GiveUpError after 4 attempts", err)
	}
}

// TestPoisonWithoutStorageIsRefused: on a structure-only graph the poison
// seam has nothing to corrupt, and says so instead of passing silently.
func TestPoisonWithoutStorageIsRefused(t *testing.T) {
	in := New(Plan{Poison: &PoisonSpec{Label: "spmm fw", Stage: 0, Device: 0}})
	g := sim.NewGraph(sim.DGXV100(), 1)
	g.Reg = sim.NewBufRegistry()
	g.Fault = in
	out := tensor.NewPhantom(2, 2)
	out.Buf = int(g.Reg.Register("h0"))
	a := g.AddCompute(0, sim.KindSpMM, "spmm fw", 0, 1, true)
	g.BindShaped(a, nil, sim.ShapesOf(out), func() { t.Fatal("a walk ran a closure") })
	var te *sim.TaskError
	if err := g.WalkHooks(); !errors.As(err, &te) || te.ID != a {
		t.Fatalf("WalkHooks = %v, want the poisoned task's *sim.TaskError", err)
	}
}

// TestTransientSelectsCollectivesOnly: the transient seam fails attempts of
// tasks with a collective annotation and never any other task.
func TestTransientSelectsCollectivesOnly(t *testing.T) {
	in := New(Plan{Seed: 7, Transient: &TransientSpec{Every: 1, Failures: 1}})
	if err := in.BeforeTask(nil, &sim.Task{ID: 0, Kind: sim.KindGeMM, Label: "gemm"}, 1); err != nil {
		t.Fatalf("compute task failed transiently: %v", err)
	}
	if err := in.BeforeTask(nil, collTask(0), 1); !sim.IsTransient(err) {
		t.Fatalf("collective attempt = %v, want a transient failure", err)
	}
}

// collTask is a bare collective task with the given ID: what the transient
// seam selects on.
func collTask(id int) *sim.Task {
	return &sim.Task{ID: id, Kind: sim.KindComm, Label: "c", Coll: &sim.Collective{}}
}

// streamFixture records one compute task and one sampler-stream task per
// label pair on device 0 — the minimal graph for pinning structured
// matching.
func streamFixture(in *Injector) (g *sim.Graph, ran *[]string) {
	g = sim.NewGraph(sim.DGXV100(), 1)
	g.Fault = in
	ran = new([]string)
	c := g.AddCompute(0, sim.KindGeMM, "s0/work", -1, 1, false)
	g.BindShaped(c, nil, nil, func() { *ran = append(*ran, "compute") })
	s := g.AddStage(0, sim.StreamSample, sim.KindSample, "s0/work", -1, 1, true)
	g.BindShaped(s, nil, nil, func() { *ran = append(*ran, "sample") })
	return g, ran
}

// TestStructuredMatchScopesToStream pins the structured task filter: a
// crash scoped to StreamSample must ignore an identically-labeled compute
// task — the exact confusion the old substring-only matching could not
// avoid.
func TestStructuredMatchScopesToStream(t *testing.T) {
	in := New(Plan{Crash: &CrashSpec{Device: 0, OnLabel: "work", Stream: OnStream(sim.StreamSample)}})
	g, ran := streamFixture(in)
	err := g.Execute(1)
	var lost *sim.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("Execute = %v, want DeviceLostError via the sampler-stream task", err)
	}
	for _, r := range *ran {
		if r == "sample" {
			t.Fatal("the stream-scoped crash target still executed")
		}
	}

	// Kind scoping composes the same way: a KindExtract selector matches
	// neither task, so the run is fault-free.
	in2 := New(Plan{Crash: &CrashSpec{Device: 0, OnLabel: "work", Kind: OnKind(sim.KindExtract)}})
	g2, ran2 := streamFixture(in2)
	if err := g2.Execute(1); err != nil {
		t.Fatalf("kind-mismatched crash fired anyway: %v", err)
	}
	if len(*ran2) != 2 {
		t.Fatalf("ran %v, want both tasks untouched", *ran2)
	}
}

// TestStragglerStreamScope: a sampler-scoped straggler counts only
// sampler-stream tasks toward its Every cadence.
func TestStragglerStreamScope(t *testing.T) {
	in := New(Plan{Straggler: &StragglerSpec{
		Device: 0, Delay: time.Microsecond, Every: 1, Stream: OnStream(sim.StreamSample),
	}})
	g, _ := streamFixture(in)
	if err := g.Execute(1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := in.Stats().Delays; got != 1 {
		t.Fatalf("stats.Delays = %d, want 1 (only the sampler-stream task)", got)
	}
}

// TestTransientTaskFailsThenReplays pins the flaky-task seam: a failed
// attempt of the matching task is retried in place by the executor, before
// the closure runs, so one flaky attempt costs the replay nothing and the
// closure runs once; four consecutive flaky attempts of one task exhaust the
// retries and give up, naming the task.
func TestTransientTaskFailsThenReplays(t *testing.T) {
	flaky := func(failures int) *Injector {
		return New(Plan{TransientTask: &TransientTaskSpec{
			Device: 0, OnLabel: "s0/work", Failures: failures, Stream: OnStream(sim.StreamSample),
		}})
	}
	in := flaky(1)
	g, ran := streamFixture(in)
	if err := g.Execute(1); err != nil {
		t.Fatalf("Execute with one flaky attempt = %v, want it retried away", err)
	}
	if len(*ran) != 2 {
		t.Fatalf("ran %v, want each task's closure once", *ran)
	}
	if got := in.Stats().TransientFailures; got != 1 {
		t.Fatalf("stats.TransientFailures = %d, want 1", got)
	}

	g, ran = streamFixture(flaky(4))
	var give *sim.GiveUpError
	if err := g.Execute(1); !errors.As(err, &give) || give.Label != "s0/work" || give.Attempts != 4 {
		t.Fatalf("Execute with four flaky attempts = %v, want the sampler task's *sim.GiveUpError after 4 attempts", err)
	}
	for _, r := range *ran {
		if r == "sample" {
			t.Fatal("the task that gave up still ran its closure")
		}
	}
}

// TestObserveRemovalRetiresTransient pins the suspect-eviction rule: after
// the elastic path evicts a device over an exhausted retry, the
// acknowledged removal retires both transient specs, the collective's and
// the flaky task's, so the survivors' re-run is fault-free.
func TestObserveRemovalRetiresTransient(t *testing.T) {
	in := New(Plan{Seed: 7, Transient: &TransientSpec{Every: 1, Failures: 100},
		TransientTask: &TransientTaskSpec{Device: -1, Failures: 100}})
	task := &sim.Task{ID: 1, Kind: sim.KindSample, Label: "s0/sample"}
	if in.BeforeTask(nil, collTask(0), 1) == nil || in.BeforeTask(nil, task, 1) == nil {
		t.Fatal("Every=1 transient specs passed an attempt")
	}
	in.ObserveRemoval(3)
	if err := in.BeforeTask(nil, collTask(0), 2); err != nil {
		t.Fatalf("collective transient spec survived ObserveRemoval: %v", err)
	}
	if err := in.BeforeTask(nil, task, 2); err != nil {
		t.Fatalf("flaky-task spec survived ObserveRemoval: %v", err)
	}
}

func TestTransientSelectionIsSeedDeterministic(t *testing.T) {
	pick := func(seed int64) []bool {
		in := New(Plan{Seed: seed, Transient: &TransientSpec{Every: 3, Failures: 1}})
		var hits []bool
		for id := 0; id < 64; id++ {
			hits = append(hits, in.BeforeTask(nil, collTask(id), 1) != nil)
		}
		return hits
	}
	a, b := pick(42), pick(42)
	anyHit := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed selected different collectives at task %d", i)
		}
		anyHit = anyHit || a[i]
	}
	if !anyHit {
		t.Fatal("Every=3 over 64 tasks selected nothing")
	}
	c := pick(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical selections (hash ignores seed)")
	}
}
