package sample

import (
	"fmt"

	"mggcn/internal/rng"
)

// Plan is one epoch's deterministic minibatch schedule: the shuffled
// training vertices split into batches, plus the per-batch sampler seed.
// Both are pure functions of (seed, epoch), so the sampler stage can run on
// any device or goroutine and still reproduce the serial run bit-for-bit —
// the handoff contract of the factored pipeline.
type Plan struct {
	Batches [][]int32
	Seeds   []int64
}

// PlanEpoch shuffles trainVerts with an epoch-derived seed and splits the
// result into batchSize batches (the last may be short). Each batch gets
// its sampler seed from SplitSeed(seed, epoch, batch).
func PlanEpoch(trainVerts []int32, batchSize int, seed int64, epoch int) *Plan {
	if batchSize < 1 {
		panic(fmt.Sprintf("sample: batchSize %d < 1", batchSize))
	}
	verts := append([]int32(nil), trainVerts...)
	r := rng.NewRNG(rng.SplitSeed(seed, epoch, -1))
	r.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
	p := &Plan{}
	for start, b := 0, 0; start < len(verts); start, b = start+batchSize, b+1 {
		end := start + batchSize
		if end > len(verts) {
			end = len(verts)
		}
		p.Batches = append(p.Batches, verts[start:end])
		p.Seeds = append(p.Seeds, rng.SplitSeed(seed, epoch, b))
	}
	return p
}
