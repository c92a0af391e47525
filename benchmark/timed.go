package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// ops counts every operation whose failure would make a number meaningless:
// New*Trainer, RunEpoch, checkpoint round-trips and verification checks.
// failed/attempted is the failed-ops share; the result line carries both.
type ops struct {
	attempted, failed int
	errs              []string
}

// do counts one operation and records its failure.
func (o *ops) do(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, what+": "+err.Error())
		return false
	}
	return true
}

// check counts one verification check.
func (o *ops) check(what string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	o.do(what, err)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pass is one timed run of consecutive epochs on one trainer.
type pass struct {
	EpochMS []float64
	Losses  []float64
	Last    epochStat
	Total   time.Duration
	// Go runtime deltas over the pass.
	AllocBytes uint64
	GCCycles   uint32
	GCPause    time.Duration
}

// runEpochs runs n epochs on tr, closed loop: the next RunEpoch starts when
// the previous one returned. between is called after every epoch outside
// the epoch's own timing with the epoch's number and wall-clock (nil:
// nothing).
func runEpochs(o *ops, tr trainer, n int, between func(e int, d time.Duration)) (pass, error) {
	var p pass
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for e := 0; e < n; e++ {
		t := time.Now()
		st, err := tr.Epoch()
		d := time.Since(t)
		if !o.do("RunEpoch", err) {
			return p, err
		}
		p.EpochMS = append(p.EpochMS, ms(d))
		p.Losses = append(p.Losses, st.Loss)
		p.Last = st
		if between != nil {
			between(e, d)
		}
	}
	p.Total = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.GCCycles = m1.NumGC - m0.NumGC
	p.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p, nil
}

// timedResult is what one end-to-end run hands back: the metrics and the
// raw epoch samples (the suite pools those across processes).
type timedResult struct {
	Metrics *metricSet
	EpochMS []float64
}

// runTimed is one end-to-end run of a workload through the public API with
// tracing off: one set-up, then a fixed number of epochs (about seconds'
// worth). procStart is when the process began: setup_s runs from there to
// the end of the last warm-up epoch, and the suite (or whoever runs the
// processes) takes the median over processes.
func runTimed(o *ops, w workload, seed uint64, seconds float64, procStart time.Time) (timedResult, error) {
	ds := w.synthesize()
	tr, err := w.newPublic(ds, seed)
	if !o.do("NewTrainer", err) {
		return timedResult{}, err
	}
	warm, err := runEpochs(o, tr, w.Warmup, nil)
	if err != nil {
		return timedResult{}, err
	}
	setup := time.Since(procStart)

	p, err := runEpochs(o, tr, w.timedEpochs(seconds), nil)
	if err != nil {
		return timedResult{}, err
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(tr)

	loss := p.Last.Loss
	o.check("loss finite", !math.IsNaN(loss) && !math.IsInf(loss, 0), "loss_final is %v", loss)
	o.check("loss fell", loss < warm.Losses[0], "loss_final %v is not below the first epoch's %v", loss, warm.Losses[0])

	m := newMetricSet(perRun)
	m.set("epoch_wall_ms_p50", median(p.EpochMS))
	m.set("vertices_per_s", float64(w.verticesPerEpoch())*float64(len(p.EpochMS))/p.Total.Seconds())
	m.set("setup_s", setup.Seconds())
	m.set("sim_epoch_s", p.Last.SimSeconds)
	m.set("loss_final", loss)
	m.set("live_heap_mb", float64(mem.HeapAlloc)/1e6)
	return timedResult{Metrics: m, EpochMS: p.EpochMS}, nil
}
