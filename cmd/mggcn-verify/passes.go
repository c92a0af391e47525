package main

import (
	"fmt"

	"mggcn/internal/memcheck"
	"mggcn/internal/san"
	"mggcn/internal/schedcheck"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// sanPass sanitizes each strategy's recorded graph at the full group.
func (v *verifier) sanPass() string {
	fenceConflicts := 0
	for _, st := range v.selected(fullBatch, gat) {
		s := v.subject(st, v.cfg.P)
		if v.noFences {
			conflicts := san.Check(s.graph, s.graph.HappensBefore(sim.ExecutorEdges&^sim.EdgeFences))
			fenceConflicts += len(conflicts)
			if len(conflicts) == 0 {
				v.say("%s: fence-removed model: no conflicts (deps alone order this strategy)\n", s.name)
			} else {
				v.say("%s: fence removal exposes %d conflicts (expected), e.g. %v\n", s.name, len(conflicts), conflicts[0])
			}
			continue
		}
		for _, c := range san.Check(s.graph, s.hb) {
			v.finding("%s: unordered conflict: %v", s.name, c)
		}
		bound := len(s.dims) + 2 // §4.2: L+3 slabs, L = len(dims)-1
		for dev, n := range s.live.Count {
			if n > bound {
				v.finding("%s: %s has %d slab buffers live at once, want <= L+3 = %d", s.name, dev, n, bound)
			}
		}

		var sh *san.Shadow
		s.rerun(0, func(reg *sim.BufRegistry) sim.ExecObserver {
			sh = san.NewShadow(reg)
			return sh
		})
		for _, f := range sh.Findings {
			v.finding("%s: shadow: %v", s.name, f)
		}
		for seed := int64(1); seed <= int64(v.seeds); seed++ {
			got := s.rerun(seed, nil)
			if got.loss != s.base.loss { // vet:ok floateq: adversarial replay parity is bit-exact by contract
				v.finding("%s: adversarial seed %d: loss %v != %v", s.name, seed, got.loss, s.base.loss)
			}
			for i := range s.base.tensors {
				if d := tensor.MaxAbsDiff(s.base.tensors[i], got.tensors[i]); d != 0 {
					v.finding("%s: adversarial seed %d: output %d diverges by %g", s.name, seed, i, d)
				}
			}
		}
		v.say("%s: ok (%d tasks, %d adversarial seeds)\n", s.name, len(s.graph.Tasks), v.seeds)
	}
	if v.noFences {
		// The fence-removed model must surface, somewhere, the orderings
		// the graphs really depend on; total silence means the access
		// declarations went blind (a strategy whose deps alone order every
		// conflict — e.g. allreduce-based 1.5D — is legitimately quiet).
		if fenceConflicts == 0 {
			v.finding("fence-removed model reports no conflicts anywhere — declarations have lost their teeth")
		}
		return fmt.Sprintf("fence removal exposes %d conflicts across strategies (expected)", fenceConflicts)
	}
	return "clean"
}

// schedcheckPass runs the structural passes and certifies the communication
// volume three ways — closed form == annotations == comm.Meter — on every
// strategy and its P-1 degradation.
func (v *verifier) schedcheckPass() string {
	for _, s := range v.rows(v.selected(fullBatch, gat)) {
		before := len(v.pass.Findings)
		for _, f := range schedcheck.Check(s.graph) {
			v.finding("%s: %v", s.label(), f)
		}
		model := schedcheck.Model{N: v.graph.N(), P: s.p, S: s.cfg.MemScale,
			Dims: s.dims, OrderSwitch: s.cfg.OrderSwitch, SkipFirstBackward: s.cfg.SkipFirstBackward,
		}
		vol, err := schedcheck.VolumeForm(s.form(), model)
		if err != nil {
			fatalf("%s: %v", s.label(), err)
		}
		for _, f := range schedcheck.CertifyVolume(s.graph, vol, model) {
			v.finding("%s: %v", s.label(), f)
		}
		annotated := schedcheck.AnnotatedWords(s.graph)
		for _, op := range sim.CollOps() {
			if got, want := s.comm.Words(op), annotated[op]; got != want {
				v.finding("%s: %s: meter measured %d words but annotations claim %d", s.label(), op, got, want)
			}
		}
		if len(v.pass.Findings) == before {
			v.say("%s: certified (%d tasks)\n", s.label(), len(s.graph.Tasks))
		}
	}
	return "certified"
}

// crossCheck is one device's three-way memory comparison, JSON-ready.
type crossCheck struct {
	Strategy      string `json:"strategy"`
	P             int    `json:"gpus"`
	Device        string `json:"device"`
	CertifiedByte int64  `json:"certified_slab_bytes"`
	LivenessByte  int64  `json:"liveness_slab_bytes"`
	MeterByte     int64  `json:"meter_slab_bytes"`
	SlabCount     int    `json:"certified_slab_count"`
	ResidentByte  int64  `json:"certified_resident_bytes"`
	PoolByte      int64  `json:"pool_used_bytes"`
	OK            bool   `json:"ok"`
}

// memcheckPass cross-checks, per device, the closed-form certified peak
// against the liveness high-water and the allocation meter (bytes and slab
// counts) and the certified resident footprint against the pool, then
// issues the catalog fit verdicts.
func (v *verifier) memcheckPass() string {
	for _, s := range v.rows(v.selected(fullBatch, gat, sampled)) {
		for _, c := range s.crossChecks() {
			const row = "%s %s: %s (slab %d B in %d slabs, resident %d B)"
			if c.OK {
				v.say(row+"\n", s.label(), c.Device, "certified", c.CertifiedByte, c.SlabCount, c.ResidentByte)
			} else {
				v.finding(row, s.label(), c.Device, "DISAGREES", c.CertifiedByte, c.SlabCount, c.ResidentByte)
			}
			v.report.CrossChecks = append(v.report.CrossChecks, c)
		}
	}

	var err error
	v.report.Fit, err = memcheck.FitCatalog(v.cfg.Spec, v.cfg.P, v.fitScale, v.fitHidden, v.cfg.Layers)
	if err != nil {
		fatalf("%v", err)
	}
	v.say("\nfit verdicts at scale %d on %s (%d GPUs, %d B/GPU):\n", v.fitScale, v.machine, v.cfg.P, v.cfg.Spec.MemBytesPerGPU)
	for _, f := range v.report.Fit {
		verdict := "fits"
		if !f.Fits {
			verdict = "NO FIT"
		}
		v.say("  %-10s %-7s n=%-11d %14d B  %s\n", f.Dataset, f.Strategy, f.N, f.Bytes, verdict)
	}
	return "certified"
}

// crossChecks evaluates the subject's closed forms per device and lines them
// up with the recording's liveness, meter and pool numbers.
func (s *subject) crossChecks() []crossCheck {
	must := s.must
	live := s.live
	meterBytes, meterCount := s.alloc.SlabPeakBytes(), s.alloc.SlabPeakCount()
	var out []crossCheck
	for d := 0; d < s.p; d++ {
		fp, err := memcheck.PeakForm(s.form(), s.model(d))
		must(err)
		if fp.Uncertified != "" {
			fatalf("%s d%d: uncertified: %s", s.label(), d, fp.Uncertified)
		}
		key := sim.DeviceKey(d)
		c := crossCheck{
			Strategy: s.name, P: s.p, Device: key,
			CertifiedByte: fp.SlabBytes,
			LivenessByte:  live.Bytes[key],
			MeterByte:     meterBytes[key],
			SlabCount:     fp.SlabCount,
			ResidentByte:  fp.Resident,
			PoolByte:      s.poolUsed(d),
		}
		c.OK = c.CertifiedByte == c.LivenessByte && c.CertifiedByte == c.MeterByte &&
			c.SlabCount == live.Count[key] && c.SlabCount == meterCount[key] &&
			c.ResidentByte == c.PoolByte
		out = append(out, c)
	}
	return out
}
