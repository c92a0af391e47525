package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/tensor"
)

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	g := testGraph(t)
	// Uninterrupted run: 10 epochs.
	cfgA := testConfig(4)
	trA, err := NewTrainer(g, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	var wantLoss float64
	for e := 0; e < 10; e++ {
		wantLoss = mustEpoch(trA).Loss
	}

	// Interrupted run: 5 epochs, checkpoint, restore into a fresh trainer
	// with a different seed, 5 more epochs.
	trB, err := NewTrainer(g, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		mustEpoch(trB)
	}
	var buf bytes.Buffer
	if err := trB.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cfgC := cfgA
	cfgC.Seed = 999 // restore must override the fresh initialization
	trC, err := NewTrainer(g, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if err := trC.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var gotLoss float64
	for e := 0; e < 5; e++ {
		gotLoss = mustEpoch(trC).Loss
	}
	if diff := gotLoss - wantLoss; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("resumed loss %v != uninterrupted %v", gotLoss, wantLoss)
	}
	// Weights must match on every device.
	for d := 0; d < 4; d++ {
		for l := range trA.weights[d] {
			if !tensor.Equal(trA.weights[d][l], trC.weights[d][l], 1e-7) {
				t.Fatalf("device %d layer %d weights diverged after resume", d, l)
			}
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	g := testGraph(t)
	tr, err := NewTrainer(g, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := testConfig(2)
	other.Hidden = 32 // different model shape
	tr2, err := NewTrainer(g, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.LoadCheckpoint(&buf); err == nil {
		t.Fatalf("mismatched model accepted")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	g := testGraph(t)
	tr, err := NewTrainer(g, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadCheckpoint(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatalf("garbage accepted")
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if err := tr.LoadCheckpoint(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatalf("truncated checkpoint accepted")
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	// Any flipped bit in the payload must fail the CRC footer with the
	// typed corruption error — never restore silently, never panic.
	g := testGraph(t)
	tr, err := NewTrainer(g, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	mustEpoch(tr)
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one payload bit well past the header (inside the tensors).
	for _, off := range []int{len(full) / 2, len(full) - 8} {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x10
		err := tr.LoadCheckpoint(bytes.NewReader(bad))
		var corrupt *CorruptCheckpointError
		if !errors.As(err, &corrupt) {
			t.Fatalf("bit flip at %d: err = %v, want *CorruptCheckpointError", off, err)
		}
	}
	// The pristine bytes still load.
	if err := tr.LoadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

func TestCheckpointDetectsTruncationEverywhere(t *testing.T) {
	// Cutting the file at any prefix length must produce a descriptive
	// error, including a cut inside the 4-byte footer itself.
	g := testGraph(t)
	tr, err := NewTrainer(g, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 2, 11, len(full) / 3, len(full) - 5, len(full) - 1} {
		err := tr.LoadCheckpoint(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(full))
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("truncation to %d bytes: undescriptive error %v", n, err)
		}
	}
}

func TestCheckpointRejectsOldVersion(t *testing.T) {
	// A version-1 file (no checksum footer) must be refused with a version
	// error, not misparsed.
	g := testGraph(t)
	tr, err := NewTrainer(g, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(old[4:8], 1) // rewrite the version field
	err = tr.LoadCheckpoint(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-1 checkpoint: err = %v, want a version error", err)
	}
}

// TestCheckpointPhantomRefused: a phantom trainer of either kind has no
// state, so it refuses to save, writing nothing, and refuses to load even a
// checkpoint its real twin wrote at the same dims.
func TestCheckpointPhantomRefused(t *testing.T) {
	full, sampled := fuzzTrainers(t)
	g := gen.Generate("ckpt-fuzz", goldenBTER, 3, 2, true)
	cfg, scfg := testConfig(2), testSampledConfig(2)
	cfg.Hidden, scfg.Hidden = 2, 2
	phFull, err := NewTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phSampled, err := NewSampledTrainer(g, scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]checkpointer{{phFull, full}, {phSampled, sampled}} {
		phantom, twin := pair[0], pair[1]
		var buf bytes.Buffer
		if err := phantom.SaveCheckpoint(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("%T: phantom save wrote %d bytes, err %v", phantom, buf.Len(), err)
		}
		if err := phantom.LoadCheckpoint(bytes.NewReader(saved(t, twin))); err == nil || !strings.Contains(err.Error(), "phantom") {
			t.Errorf("%T: phantom load of its real twin's checkpoint: err %v", phantom, err)
		}
	}
}
