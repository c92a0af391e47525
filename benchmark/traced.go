package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mggcn/internal/comm"
	"mggcn/internal/sim"
)

// span is one replayed task closure: the layer boundary the runner can see
// from outside the program. Times are relative to the recorder's origin.
type span struct {
	Epoch      int
	Task       int
	Kind       sim.Kind
	Label      string
	Device     int
	Stream     sim.StreamID
	Start, End time.Duration
}

// recorder is the benchmark's sim.ExecObserver. The executor replays
// serially while an observer is installed, so Before/After never overlap
// and the recorder needs no lock; spans stay in memory until the run ends.
type recorder struct {
	origin time.Time
	epoch  int
	begun  time.Duration
	spans  []span
	epochs []span // one per traced epoch, Task = -1
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) Before(t *sim.Task) { r.begun = time.Since(r.origin) }

func (r *recorder) After(t *sim.Task) {
	r.spans = append(r.spans, span{
		Epoch: r.epoch, Task: t.ID, Kind: t.Kind, Label: t.Label,
		Device: t.Devices[0], Stream: t.Stream,
		Start: r.begun, End: time.Since(r.origin),
	})
}

// epochDone closes traced epoch number e, which took d and has just ended.
func (r *recorder) epochDone(e int, d time.Duration) {
	end := time.Since(r.origin)
	r.epochs = append(r.epochs, span{Epoch: e, Task: -1, Label: "RunEpoch", Start: end - d, End: end})
	r.epoch = e + 1
}

// kindTotals sums span durations and counts by task kind.
func (r *recorder) kindTotals() (busy map[sim.Kind]time.Duration, tasks map[sim.Kind]int) {
	busy, tasks = map[sim.Kind]time.Duration{}, map[sim.Kind]int{}
	for _, s := range r.spans {
		busy[s.Kind] += s.End - s.Start
		tasks[s.Kind]++
	}
	return busy, tasks
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one process row per simulated device with
// a thread per stream, and one row of RunEpoch spans above them.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	const runnerPID = 1000
	events := make([]event, 0, len(r.spans)+len(r.epochs))
	for _, s := range r.epochs {
		events = append(events, event{Name: s.Label, Cat: "epoch", Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: runnerPID, Args: map[string]any{"epoch": s.Epoch}})
	}
	for _, s := range r.spans {
		events = append(events, event{Name: s.Label, Cat: s.Kind.String(), Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: s.Device, TID: int(s.Stream), Args: map[string]any{"epoch": s.Epoch, "task": s.Task}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// overlapRatio is SampledEpochStats.OverlapRatio's formula, applied to
// either trainer's schedule: mean over devices of summed per-stream busy
// time over the makespan.
func overlapRatio(s *sim.Schedule) float64 {
	if s == nil || s.Makespan <= 0 {
		return 0
	}
	var util float64
	for _, streams := range s.DeviceBusy {
		var busy float64
		for _, b := range streams {
			busy += b
		}
		util += busy / s.Makespan
	}
	return util / float64(len(s.DeviceBusy))
}

// runTraced is the per-layer run of a workload: one core trainer on the
// same graph and configuration as runTimed's, driven through four phases —
// set-up (split three ways), TraceEpochs epochs under the span recorder
// (serial replay), the same epochs again from a checkpoint without it
// (concurrent replay; losses must match bit for bit), and SerialEpochs
// epochs replayed serially without it (what tracing alone costs) — followed
// by one single-device epoch (full-batch only) and the direct layer calls. tracePath, when
// not empty, receives the spans as Chrome trace-event JSON.
func runTraced(o *ops, w workload, seed uint64, tracePath string) (*metricSet, error) {
	m := newMetricSet(perLayer)
	meter := comm.NewMeter()

	t := time.Now()
	g := w.generate()
	m.set("gen.synthesize_ms", ms(time.Since(t)))
	t = time.Now()
	tr, err := w.newCore(g, seed, devices, meter)
	m.set("core.new_trainer_ms", ms(time.Since(t)))
	if !o.do("NewTrainer", err) {
		return nil, err
	}
	warm, err := runEpochs(o, tr, w.Warmup, nil)
	if err != nil {
		return nil, err
	}
	m.set("core.first_epoch_ms", warm.EpochMS[0])

	var ckpt bytes.Buffer
	m.set("core.checkpoint_save_ms", medianMS(directReps, func() {
		ckpt.Reset()
		if e := tr.SaveCheckpoint(&ckpt); e != nil {
			err = e
		}
	}))
	if !o.do("SaveCheckpoint", err) {
		return nil, err
	}
	m.set("core.checkpoint_bytes", float64(ckpt.Len()))

	// Traced pass. The extra Run() after each epoch times the scheduler on
	// that epoch's graph; RunEpoch made the same call inside its own span.
	rec := newRecorder()
	*tr.observer = rec
	var schedule, tracedWall time.Duration
	traced, err := runEpochs(o, tr, w.TraceEpochs, func(e int, d time.Duration) {
		rec.epochDone(e, d)
		tracedWall += d
		t := time.Now()
		tr.lastGraph().Run()
		schedule += time.Since(t)
	})
	*tr.observer = nil
	if err != nil {
		return nil, err
	}
	epochsTraced := float64(w.TraceEpochs)
	perEpoch := func(d time.Duration) float64 { return ms(d) / epochsTraced }
	busy, tasks := rec.kindTotals()
	var inTasks time.Duration
	var allTasks int
	for _, k := range sim.Kinds() {
		inTasks += busy[k]
		allTasks += tasks[k]
	}
	m.set("core.traced_epoch_ms", perEpoch(tracedWall))
	m.set("sparse.spmm_busy_ms", perEpoch(busy[sim.KindSpMM]))
	m.set("sparse.spmm_tasks", float64(tasks[sim.KindSpMM])/epochsTraced)
	m.set("tensor.gemm_busy_ms", perEpoch(busy[sim.KindGeMM]))
	m.set("tensor.gemm_tasks", float64(tasks[sim.KindGeMM])/epochsTraced)
	m.set("tensor.activation_busy_ms", perEpoch(busy[sim.KindActivation]))
	m.set("nn.loss_busy_ms", perEpoch(busy[sim.KindLoss]))
	m.set("nn.adam_busy_ms", perEpoch(busy[sim.KindAdam]))
	m.set("comm.busy_ms", perEpoch(busy[sim.KindComm]))
	m.set("comm.calls", float64(tasks[sim.KindComm])/epochsTraced)
	m.set("sample.busy_ms", perEpoch(busy[sim.KindSample]))
	m.set("sample.extract_busy_ms", perEpoch(busy[sim.KindExtract]))
	m.set("sim.tasks", float64(allTasks)/epochsTraced)
	m.set("sim.schedule_ms", perEpoch(schedule))
	m.set("core.self_ms", perEpoch(tracedWall-inTasks-schedule))

	// Untraced pass over the same epochs: back to the checkpoint, observer
	// off, the meter counting from zero.
	m.set("core.checkpoint_load_ms", medianMS(directReps, func() {
		if e := tr.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); e != nil {
			err = e
		}
	}))
	if !o.do("LoadCheckpoint", err) {
		return nil, err
	}
	meter.Reset()
	untraced, err := runEpochs(o, tr, w.UntracedEpochs, nil)
	if err != nil {
		return nil, err
	}
	for e, l := range traced.Losses {
		o.check("traced loss parity", e < len(untraced.Losses) && sameBits(l, untraced.Losses[e]),
			"epoch %d: traced loss %v differs from the untraced run's", e, l)
	}
	epochs := float64(len(untraced.EpochMS))
	m.set("runtime.alloc_mb_per_epoch", float64(untraced.AllocBytes)/1e6/epochs)
	m.set("runtime.gc_cycles_per_epoch", float64(untraced.GCCycles)/epochs)
	m.set("runtime.gc_pause_ms_per_epoch", ms(untraced.GCPause)/epochs)
	m.set("sim.replay_speedup", median(traced.EpochMS)/median(untraced.EpochMS))

	st := untraced.Last
	words := func(op sim.CollOp) float64 { return float64(meter.Words(op)) / epochs }
	m.set("comm.broadcast_words", words(sim.CollBroadcast))
	m.set("comm.allreduce_words", words(sim.CollAllReduce))
	hit, miss := words(sim.CollGatherHit), words(sim.CollGatherMiss)
	m.set("sample.gather_hit_words", hit)
	m.set("sample.gather_miss_words", miss)
	rate := 0.0
	if hit+miss > 0 {
		rate = hit / (hit + miss)
	}
	m.set("sample.cache_hit_rate", rate)
	m.set("sim.spmm_sim_s", st.KindBusy[sim.KindSpMM])
	m.set("sim.gemm_sim_s", st.KindBusy[sim.KindGeMM])
	m.set("sim.comm_sim_s", st.KindBusy[sim.KindComm])
	m.set("sim.sample_sim_s", st.KindBusy[sim.KindSample])
	m.set("sim.extract_sim_s", st.KindBusy[sim.KindExtract])
	m.set("sim.overlap_ratio", overlapRatio(st.Sched))

	// Serial replay without the recorder: the traced pass's cost over this
	// is what the recorder itself adds.
	*tr.execWorkers = 1
	serial, err := runEpochs(o, tr, w.SerialEpochs, nil)
	*tr.execWorkers = 0
	if err != nil {
		return nil, err
	}
	m.set("trace.overhead_ratio", median(traced.EpochMS)/median(serial.EpochMS))

	// Simulated scaling only (the host has fewer cores than devices, so
	// wall-clock scaling would measure the host), full-batch only.
	if w.Sampled {
		// The result line carries every name; the suite leaves these out.
		m.set("sim.p1_epoch_s", 0)
		m.set("sim.speedup_p4_over_p1", 0)
	} else {
		p1, err := w.newCore(g, seed, 1, nil)
		if !o.do("NewTrainer P=1", err) {
			return nil, err
		}
		one, err := runEpochs(o, p1, 1, nil)
		if err != nil {
			return nil, err
		}
		m.set("sim.p1_epoch_s", one.Last.SimSeconds)
		m.set("sim.speedup_p4_over_p1", one.Last.SimSeconds/st.SimSeconds)
	}

	directCalls(m, w, g, seed, tr.deviceRows)

	if tracePath != "" {
		if err := rec.writeChromeTrace(tracePath); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return m, nil
}
