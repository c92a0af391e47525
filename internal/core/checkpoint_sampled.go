package core

import (
	"encoding/binary"
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
// to w in the version-3 format.
func (tr *SampledTrainer) SaveCheckpoint(w io.Writer) error {
	return writeCheckpoint(w, ckptVersionSampled, tr.Dims, func(cw io.Writer, le binary.ByteOrder) error {
		for _, x := range []uint64{uint64(tr.Cfg.Seed), uint64(tr.cursor.Epoch), uint64(tr.cursor.NextBatch)} {
			if err := binary.Write(cw, le, x); err != nil {
				return err
			}
		}
		return tr.writeState(cw, le)
	})
}

// LoadCheckpoint restores a version-3 checkpoint into every device replica
// and parks the sampler cursor where the saved run left off. The trainer's
// layer dims must match, and so must the sampling seed — the cursor indexes
// into the (seed, epoch)-determined batch sequence, so resuming under a
// different seed would silently train the wrong batches. Version-2
// (full-batch) files are rejected with a *VersionError.
func (tr *SampledTrainer) LoadCheckpoint(r io.Reader) error {
	var seed, epoch, nextBatch uint64
	var st *modelState
	err := readCheckpoint(r, ckptVersionSampled, tr.Dims, func(cr io.Reader, le binary.ByteOrder) (err error) {
		for _, dst := range []*uint64{&seed, &epoch, &nextBatch} {
			if err := binary.Read(cr, le, dst); err != nil {
				return truncated("sampler cursor", err)
			}
		}
		st, err = tr.readState(cr, le)
		return err
	})
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
