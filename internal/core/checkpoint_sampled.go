package core

import (
	"fmt"
	"io"
	"math"
)

// Sampled checkpoints (version 3) extend the full-batch frame with the
// sampler cursor: seed, cursor epoch, next batch index, then the optimizer
// step and per-layer tensors the v2 payload carries. Because every batch is
// a pure function of (seed, epoch, batch index) and the cursor only ever
// parks on step boundaries, a trainer restored from a v3 file replays the
// remainder of the epoch bit-identically to a run that was never killed —
// the checkpoint is a resume point, not an approximation.

// SaveCheckpoint writes the sampler cursor plus model and optimizer state
// to w in the version-3 format. Phantom-mode trainers return an error.
func (tr *SampledTrainer) SaveCheckpoint(w io.Writer) error {
	return tr.writeCheckpoint(w, ckptVersionSampled, tr.Dims, uint64(tr.Cfg.Seed), uint64(tr.cursor.Epoch), uint64(tr.cursor.NextBatch))
}

// LoadCheckpoint restores a version-3 checkpoint into every device replica
// and parks the sampler cursor where the saved run left off. The trainer's
// layer dims must match, and so must the sampling seed — the cursor indexes
// into the (seed, epoch)-determined batch sequence, so resuming under a
// different seed would silently train the wrong batches. Version-2
// (full-batch) files are rejected with a *VersionError.
func (tr *SampledTrainer) LoadCheckpoint(r io.Reader) error {
	var seed, epoch, nextBatch uint64
	st, err := tr.readCheckpoint(r, ckptVersionSampled, tr.Dims, &seed, &epoch, &nextBatch)
	if err != nil {
		return err
	}
	if epoch > math.MaxInt32 || nextBatch > math.MaxInt32 {
		return fmt.Errorf("core: checkpoint sampler cursor (epoch %d, batch %d) out of range", epoch, nextBatch)
	}
	if int64(seed) != tr.Cfg.Seed {
		return fmt.Errorf("core: checkpoint sampling seed %d, trainer configured with %d — deterministic resume needs the same seed", int64(seed), tr.Cfg.Seed)
	}
	tr.restore(st)
	tr.cursor = samplerCursor{Epoch: int(epoch), NextBatch: int(nextBatch)}
	return nil
}
