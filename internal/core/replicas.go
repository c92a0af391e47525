package core

import (
	"fmt"
	"math"
	"slices"

	"mggcn/internal/comm"
	"mggcn/internal/nn"
	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// replicas is the one thing §4.1 replicates — "only the model weights are
// replicated": per device, the weight stack, its gradients and the Adam
// state, over the machine they live on. The full-batch and sampled trainers
// embed it; snapshot, restore, corruption checks and the survivor resync of
// the elastic path are defined here once. On a phantom replayer the replicas
// carry shapes only: there is no state to snapshot, check or move.
type replicas struct {
	replayer
	weights    [][]*tensor.Dense // [device][layer]
	grads      [][]*tensor.Dense
	opts       []*nn.Adam
	paramCount int64
}

// newReplicas starts an empty replica set of the model init on rp's machine;
// add places one replica per device.
func newReplicas(rp replayer, init []*tensor.Dense) replicas {
	r := replicas{replayer: rp}
	for _, w := range init {
		r.paramCount += int64(w.Rows) * int64(w.Cols)
	}
	return r
}

// add places the next device's replica: weights cloned from init, zero
// gradients and fresh Adam state, charged to the device's pool (weights,
// gradients and the two moments) and registered as d<dev>/w<l>, d<dev>/g<l>.
func (r *replicas) add(init []*tensor.Dense, lr float64) error {
	d := len(r.weights)
	if err := r.Machine.Pools[d].Alloc("model", r.paramCount*4*4); err != nil {
		return err
	}
	var ws, gs []*tensor.Dense
	for l, w := range init {
		if r.phantom {
			ws = append(ws, tensor.NewPhantom(w.Rows, w.Cols))
			gs = append(gs, tensor.NewPhantom(w.Rows, w.Cols))
		} else {
			ws = append(ws, w.Clone())
			gs = append(gs, tensor.NewDense(w.Rows, w.Cols))
		}
		registerDense(r.reg, r.reg.RegisterOn(fmt.Sprintf("d%d/w%d", d, l), d, false), ws[l])
		registerDense(r.reg, r.reg.RegisterOn(fmt.Sprintf("d%d/g%d", d, l), d, false), gs[l])
	}
	r.weights = append(r.weights, ws)
	r.grads = append(r.grads, gs)
	r.opts = append(r.opts, nn.NewAdam(lr, ws))
	return nil
}

// allReduceGrads records layer l's gradient all-reduce over every replica,
// after the tasks in waits (each device's contribution to the layer).
func (r *replicas) allReduceGrads(cg *comm.Group, l int, label string, waits []int) int {
	perDev := make([]*tensor.Dense, len(r.grads))
	for i := range perDev {
		perDev[i] = r.grads[i][l]
	}
	return cg.AllReduceSum(perDev, label, waits...)
}

// recordAdam records the replicated optimizer step — identical on every
// device, so weights stay replicated — after the step's last gradient
// all-reduce, returning the per-device task IDs. slots[d], when set, is the
// sampled pipeline's handoff slot device d's step trained from, declared in
// its Adam's reads.
func (r *replicas) recordAdam(tg *sim.Graph, label string, lastAllReduce int, slots []sim.BufID) []int {
	ids := make([]int, len(r.weights))
	for d := range ids {
		ids[d] = tg.AddCompute(d, sim.KindAdam, label, -1, r.Machine.Spec.AdamCost(r.paramCount), true, lastAllReduce)
		opt, ws, gs := r.opts[d], r.weights[d], r.grads[d]
		// Adam's moment buffers are optimizer-private and unregistered.
		tg.BindShaped(ids[d], append(sim.ShapesOf(gs...), opaqueAt(slots, d)), sim.ShapesOf(ws...), func() { opt.Step(ws, gs) })
	}
	return ids
}

// model returns the replica set itself — promoted to the embedding trainers,
// it is how the elastic loop reaches their replicas.
func (r *replicas) model() *replicas { return r }

// Weights returns device 0's weight stack (replicas are identical).
func (r *replicas) Weights() []*tensor.Dense { return r.weights[0] }

// NumericError reports a non-finite value where training arithmetic should
// have produced a finite one — the symptom of silent data corruption.
type NumericError struct {
	What string // which quantity went non-finite ("loss", "weight d0/w1[17]")
}

func (e *NumericError) Error() string {
	return fmt.Sprintf("core: non-finite %s (numeric corruption)", e.What)
}

// nonFinite names the first non-finite weight of device dev's replica, or
// returns "" when every weight is finite.
func (r *replicas) nonFinite(dev int) string {
	for l, w := range r.weights[dev] {
		for i, v := range w.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Sprintf("weight d%d/w%d[%d]", dev, l, i)
			}
		}
	}
	return ""
}

// replicaFinite reports whether device dev's weight replica is all-finite —
// a corrupted survivor must not become the resync source.
func (r *replicas) replicaFinite(dev int) bool { return r.nonFinite(dev) == "" }

// checkFinite is the silent-corruption guard every training step ends with:
// a poisoned buffer anywhere in the step shows up as a non-finite loss
// (forward-path corruption) or as non-finite weights after the Adam update
// (backward-path corruption spreads through the gradient all-reduce to every
// replica, so checking device 0's suffices).
func (r *replicas) checkFinite(loss float64) error {
	if r.phantom {
		return nil
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return &NumericError{What: "loss"}
	}
	if what := r.nonFinite(0); what != "" {
		return &NumericError{What: what}
	}
	return nil
}

// modelState is a point-in-time copy of the replicated model: weights plus
// the Adam moments and step count. One replica's worth — replicas are
// identical whenever a step boundary was reached cleanly.
type modelState struct {
	step    int
	weights []*tensor.Dense
	m, v    []*tensor.Dense
}

// capture clones device dev's replica (nil for phantom replicas).
func (r *replicas) capture(dev int) *modelState {
	if r.phantom {
		return nil
	}
	st := &modelState{step: r.opts[dev].StepCount()}
	_, m, v := r.opts[dev].State()
	for l, w := range r.weights[dev] {
		st.weights = append(st.weights, w.Clone())
		st.m = append(st.m, m[l].Clone())
		st.v = append(st.v, v[l].Clone())
	}
	return st
}

// restore copies st onto every device replica, re-establishing the
// replicated invariant — the one place a snapshot, a resynced state or a
// checkpoint lands. A nil state (phantom) is a no-op.
func (r *replicas) restore(st *modelState) {
	if st == nil || r.phantom {
		return
	}
	for d := range r.weights {
		for l := range r.weights[d] {
			r.weights[d][l].CopyFrom(st.weights[l])
		}
		r.opts[d].SetState(st.step, st.m, st.v)
	}
}

// resync broadcasts device src's replica (weights and Adam moments) to the
// other survivors over a shrunken collective group — the data movement a
// real deployment performs so the surviving replicas agree before the
// repartition. The broadcast records onto a fresh graph wired with env's
// fault machinery: a straggler still delays it and transient failures still
// retry.
func (r *replicas) resync(env *execEnv, survivors []int, src int) error {
	if len(survivors) < 2 {
		return nil
	}
	root := slices.Index(survivors, src)
	if root < 0 {
		return fmt.Errorf("core: resync source %d not among survivors %v", src, survivors)
	}
	_, err := r.epoch(env, func(tg *sim.Graph, cg *comm.Group) func(*EpochStats) error {
		sub := cg.Sub(survivors)
		_, srcM, srcV := r.opts[src].State()
		for l := range r.weights[src] {
			wDst := make([]*tensor.Dense, len(survivors))
			mDst := make([]*tensor.Dense, len(survivors))
			vDst := make([]*tensor.Dense, len(survivors))
			for i, d := range survivors {
				wDst[i] = r.weights[d][l]
				_, dm, dv := r.opts[d].State()
				mDst[i], vDst[i] = dm[l], dv[l]
			}
			_ = sub.Broadcast(root, r.weights[src][l], wDst, fmt.Sprintf("resync/w%d", l), -1) // vet:ok taskdep: independent terminal resync tasks; the graph replays immediately below
			_ = sub.Broadcast(root, srcM[l], mDst, fmt.Sprintf("resync/m%d", l), -1)           // vet:ok taskdep: independent terminal resync tasks; the graph replays immediately below
			_ = sub.Broadcast(root, srcV[l], vDst, fmt.Sprintf("resync/v%d", l), -1)           // vet:ok taskdep: independent terminal resync tasks; the graph replays immediately below
		}
		return func(*EpochStats) error {
			step := r.opts[src].StepCount()
			for _, d := range survivors {
				r.opts[d].SetStep(step)
			}
			return nil
		}
	})
	return err
}
