package core

import (
	"errors"
	"fmt"

	"mggcn/internal/graph"
	"mggcn/internal/sim"
)

// This file is the elastic degraded-mode path of both trainers: what happens
// when an epoch does not come back clean. One loop drives it — snapshot the
// model, run one epoch, and on an error classify it and recover — over the
// small elasticTrainer interface; TrainElastic and TrainSampledElastic are
// its two instantiations.
//
// The unit of recovery is what one RunEpoch call trains: the full-batch
// step, or the sampled segment from the cursor to the end of its epoch. The
// sampled cursor commits only after a segment's replay succeeds and its
// numbers check finite, so on any failure it still points at the segment
// start, and because every batch is a pure function of (Seed, epoch, batch
// index), re-running re-derives the lost work exactly — the full-batch
// epoch is the one-segment case with nothing to re-derive. The failure
// taxonomy (internal/sim's fault contract) maps onto one column of
// recoveries, the same for both trainers:
//
//   - permanent device loss (*sim.DeviceLostError): the survivors resync
//     their replicated model state from a consistent surviving replica over
//     a shrunken collective group (comm.Group.Sub), the trainer is rebuilt
//     over P-1 devices, and the voided unit re-runs. Full-batch rebuilds the
//     1D partition (1.5D degrades to 1D-row when the survivor count goes
//     odd, Strategy.Degraded); sampled re-derives the per-device feature
//     caches and handoff slots and carries the cursor over;
//   - an exhausted retry (*sim.GiveUpError: a collective or a flaky task
//     failed every attempt the executor gave it) applies the
//     suspect-eviction rule: the exhaustion is attributed to the
//     highest-indexed device (a flaky link rides with its endpoint), which
//     is evicted exactly as if it had crashed. At P == 1 there is no one
//     left to evict and the run aborts;
//   - numeric corruption (*NumericError, e.g. an injected NaN): the model
//     restores to its unit-start snapshot and the unit re-runs;
//   - anything else aborts the run. A transient failure never reaches the
//     loop: the executor retries it in place, and its last failure is the
//     GiveUpError above.
//
// Every recovery re-runs the voided unit, so a recovered run performs the
// same *effective* optimizer steps as a fault-free one: the parity bar is
// bit-identity for same-P recoveries and 1e-6 agreement with a fault-free
// P-1 run for device loss and eviction.

// RecoveryEvent is one entry of an elastic run's recovery log.
type RecoveryEvent struct {
	Epoch  int    `json:"epoch"`  // the epoch that failed (0-based, effective numbering)
	Kind   string `json:"kind"`   // "device-lost" (a crash or an eviction) or "numeric"
	Detail string `json:"detail"` // what recovery did
	P      int    `json:"p"`      // group size after recovery
}

// ElasticResult is an elastic run's report — TrainElastic's over *Trainer,
// TrainSampledElastic's over *SampledTrainer: the per-epoch stats of the
// effective (completed) epochs, the recovery log, and the surviving trainer.
type ElasticResult[T any] struct {
	Stats  []*EpochStats
	Events []RecoveryEvent
	FinalP int
	// Trainer is the (possibly rebuilt, smaller) trainer that finished the
	// run — the caller's handle for checkpointing or further epochs.
	Trainer T
}

// maxConsecutiveRecoveries bounds how many times one epoch may be retried
// before the run aborts — a stuck injector (or a genuinely broken machine)
// must not loop forever.
const maxConsecutiveRecoveries = 4

// removalObserver is the acknowledgement seam back to the fault injector:
// after the elastic path removes a crashed device and renumbers the
// survivors, the injector must stop failing the recycled index.
type removalObserver interface {
	ObserveRemoval(device int)
}

// elasticTrainer is what the elastic loop needs of a trainer T.
type elasticTrainer[T any] interface {
	// RunEpoch trains one unit of recovery; after an error the trainer's
	// position is unchanged, so calling it again re-runs the same work.
	RunEpoch() (*EpochStats, error)
	model() *replicas
	env() *execEnv
	// patience is the early-stopping patience (0: run every epoch).
	patience() int
	// rebuild returns a fresh trainer over p devices at the same position in
	// the run, and what it changed for the event detail; the loop restores
	// the model state onto it.
	rebuild(p int) (T, string, error)
}

// elasticRun is one elastic training run: the current trainer (replaced on
// every shrink), the effective epochs' stats, and the recovery log.
type elasticRun[T elasticTrainer[T]] struct {
	tr     T
	log    runLog
	events []RecoveryEvent
}

// train runs the given number of *effective* epochs, recovering from
// recoverable faults along the way. An unrecoverable failure returns with
// the partial run in place: an unclassified error and an eviction with
// nobody left to evict come back as they are, an exhausted recovery budget
// or a failed recovery wrap the epoch's error.
func (r *elasticRun[T]) train(epochs int) error {
	r.log.patience = r.tr.patience()
	for e, consecutive := 0, 0; e < epochs; {
		snap := r.tr.model().capture(0)
		s, runErr := r.tr.RunEpoch()
		if runErr == nil {
			e, consecutive = e+1, 0
			if r.log.add(s) {
				break
			}
			continue
		}
		if consecutive++; consecutive > maxConsecutiveRecoveries {
			return fmt.Errorf("core: epoch %d still failing after %d recoveries: %w", e, maxConsecutiveRecoveries, runErr)
		}
		// The failed unit committed nothing, so every branch below re-runs
		// exactly the work that was voided.
		m := r.tr.model()
		p := m.Machine.P
		ev := RecoveryEvent{Epoch: e, P: p}
		var lost *sim.DeviceLostError
		var gaveUp *sim.GiveUpError
		var numeric *NumericError
		var recErr error
		switch {
		case errors.As(runErr, &lost):
			ev, recErr = r.shrink(ev, lost.Device, snap)
		case errors.As(runErr, &gaveUp):
			// Suspect eviction: the task exhausted its retries, so the
			// flakiest endpoint — by convention the highest-indexed device —
			// leaves the group and the survivors carry on at P-1. Alone,
			// there is no suspect to evict: abort with the task's error.
			if p <= 1 {
				return runErr
			}
			ev.Detail = fmt.Sprintf("%q exhausted %d attempts; evicted suspect device %d; ",
				gaveUp.Label, gaveUp.Attempts, p-1)
			ev, recErr = r.shrink(ev, p-1, snap)
		case errors.As(runErr, &numeric):
			m.restore(snap)
			ev.Kind = "numeric"
			ev.Detail = fmt.Sprintf("restored unit-start state after %v", numeric)
		default:
			return runErr
		}
		if recErr != nil {
			return fmt.Errorf("core: recovering from %v: %w", runErr, recErr)
		}
		r.events = append(r.events, ev)
	}
	return nil
}

// shrink replaces the trainer by one over the survivors of losing lostDev:
// acknowledge the removal to the injector (first: it retires the transient
// specs that evicted a suspect, which would fail the resync's broadcasts too,
// and the resync leaves lostDev out), pick a resync source whose replica is
// still at the unit-start step and finite (falling back to the unit-start
// snapshot when none qualifies — e.g. the crash landed mid-Adam and some
// survivors already stepped), resync the survivors from it, rebuild at P-1,
// and restore the agreed state onto the new replicas. It completes ev, whose
// Detail may already say why the device is leaving.
func (r *elasticRun[T]) shrink(ev RecoveryEvent, lostDev int, snap *modelState) (RecoveryEvent, error) {
	m, env := r.tr.model(), r.tr.env()
	p := m.Machine.P
	if p <= 1 {
		return ev, fmt.Errorf("core: last device lost, nothing to shrink to")
	}
	if lostDev < 0 || lostDev >= p {
		return ev, fmt.Errorf("core: lost device %d outside machine of %d", lostDev, p)
	}
	survivors := make([]int, 0, p-1)
	for d := 0; d < p; d++ {
		if d != lostDev {
			survivors = append(survivors, d)
		}
	}

	if obs, ok := env.Fault.(removalObserver); ok {
		obs.ObserveRemoval(lostDev)
	}

	var state *modelState
	if m.phantom {
		ev.Detail += "phantom mode, no state to restore"
	} else {
		for _, d := range survivors {
			if m.opts[d].StepCount() != snap.step || !m.replicaFinite(d) {
				continue
			}
			if err := m.resync(env, survivors, d); err == nil {
				state = m.capture(d)
				ev.Detail += fmt.Sprintf("resynced %d survivors from replica %d", len(survivors), d)
			} else {
				ev.Detail += fmt.Sprintf("replica resync failed (%v); ", err)
			}
			break
		}
		if state == nil {
			state = snap
			ev.Detail += "restored unit-start snapshot"
		}
	}

	nt, rebuilt, err := r.tr.rebuild(p - 1)
	if err != nil {
		return ev, fmt.Errorf("core: repartitioning over %d survivors: %w", p-1, err)
	}
	nt.model().restore(state)
	r.tr = nt
	ev.Kind, ev.P = "device-lost", p-1
	ev.Detail += rebuilt
	return ev, nil
}

// trainElastic runs tr (and whatever it is rebuilt into) for the given
// number of effective epochs and reports the run.
func trainElastic[T elasticTrainer[T]](tr T, epochs int) (*ElasticResult[T], error) {
	run := elasticRun[T]{tr: tr}
	err := run.train(epochs)
	return &ElasticResult[T]{Stats: run.log.stats, Events: run.events, FinalP: run.tr.model().Machine.P, Trainer: run.tr}, err
}

// TrainElastic trains full-batch for the given number of *effective*
// epochs, recovering from recoverable faults along the way (see the file
// comment for the taxonomy). On an unrecoverable failure it returns the
// partial result alongside the error.
func TrainElastic(g *graph.Graph, cfg Config, epochs int) (*ElasticResult[*Trainer], error) {
	tr, err := NewTrainer(g, cfg)
	if err != nil {
		return nil, err
	}
	return trainElastic(tr, epochs)
}

func (tr *Trainer) env() *execEnv { return &tr.Cfg.execEnv }

// patience is 0: the full-batch trainer runs every epoch it is asked for.
func (tr *Trainer) patience() int { return 0 }

// rebuild repartitions over p devices; 1.5D needs an even group, so an odd
// survivor count degrades to the paper's default 1D-row strategy.
func (tr *Trainer) rebuild(p int) (*Trainer, string, error) {
	cfg, detail := tr.Cfg, ""
	cfg.P = p
	if s := cfg.Strategy.Degraded(p); s != cfg.Strategy {
		cfg.Strategy = s
		detail = "; degraded to " + s.String()
	}
	nt, err := NewTrainer(tr.Graph, cfg)
	return nt, detail, err
}

// TrainSampledElastic trains the sampled pipeline for the given number of
// effective epochs, recovering at segment granularity (see the file comment
// for the taxonomy); EarlyStopPatience applies as in SampledTrainer.Train.
// On an unrecoverable failure it returns the partial result alongside the
// error.
func TrainSampledElastic(g *graph.Graph, cfg SampledConfig, epochs int) (*ElasticResult[*SampledTrainer], error) {
	tr, err := NewSampledTrainer(g, cfg)
	if err != nil {
		return nil, err
	}
	return trainElastic(tr, epochs)
}

func (tr *SampledTrainer) env() *execEnv { return &tr.Cfg.execEnv }

// rebuild builds the pipeline over p devices — which re-derives the
// per-device feature caches from the surviving degree order and re-registers
// the handoff slot discipline — and carries the cursor over, so the voided
// segment replays over the p-device round-robin.
func (tr *SampledTrainer) rebuild(p int) (*SampledTrainer, string, error) {
	cfg := tr.Cfg
	cfg.P = p
	nt, err := NewSampledTrainer(tr.Graph, cfg)
	if err != nil {
		return nil, "", err
	}
	nt.cursor = tr.cursor
	return nt, fmt.Sprintf("; rebuilt caches and handoff slots at P=%d, cursor at (epoch %d, batch %d)",
		p, tr.cursor.Epoch, tr.cursor.NextBatch), nil
}
