package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSampledCheckpointResumeMidEpoch is the cursor's reason to exist: kill
// a sampled run mid-epoch, restore the checkpoint into a trainer whose own
// state has diverged, and the remainder of the run must be bit-identical to
// one that was never interrupted.
func TestSampledCheckpointResumeMidEpoch(t *testing.T) {
	cfg := testSampledConfig(2)
	g := testGraph(t)

	ref, err := NewSampledTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refStats := make([]*SampledEpochStats, 2)
	for e := range refStats {
		if refStats[e], err = ref.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}

	// Interrupted run: two steps into epoch 0, then save and walk away.
	a, err := NewSampledTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	if c := a.cursor; c.Epoch != 0 || c.NextBatch == 0 {
		t.Fatalf("cursor (%d,%d) should be parked mid-epoch 0", c.Epoch, c.NextBatch)
	}
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a trainer that has already trained a full epoch — the
	// load must overwrite its weights, moments, step, and cursor alike.
	b, err := NewSampledTrainer(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.cursor != a.cursor {
		t.Fatalf("restored cursor %+v, saved %+v", b.cursor, a.cursor)
	}

	// Finish epoch 0 from the cursor, then run epoch 1 whole; epoch 1 must
	// match the uninterrupted run exactly.
	if _, err := b.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	s1, err := b.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Loss != refStats[1].Loss { // vet:ok floateq — bit-identity is the contract
		t.Fatalf("resumed epoch-1 loss %v, uninterrupted %v", s1.Loss, refStats[1].Loss)
	}
	for l, w := range ref.Weights() {
		bw := b.Weights()[l].Data
		for i := range w.Data {
			if w.Data[i] != bw[i] {
				t.Fatalf("weight %d[%d]: resumed %v, uninterrupted %v", l, i, bw[i], w.Data[i])
			}
		}
	}
}

// TestSampledCheckpointVersionMismatch: the two formats refuse each other
// with a typed *VersionError in both directions.
func TestSampledCheckpointVersionMismatch(t *testing.T) {
	g := testGraph(t)
	full, err := NewTrainer(g, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewSampledTrainer(g, testSampledConfig(2))
	if err != nil {
		t.Fatal(err)
	}

	var v2, v3 bytes.Buffer
	if err := full.SaveCheckpoint(&v2); err != nil {
		t.Fatal(err)
	}
	if err := sampled.SaveCheckpoint(&v3); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		load      func(r io.Reader) error
		buf       *bytes.Buffer
		got, want uint32
	}{
		{"v2 into sampled loader", sampled.LoadCheckpoint, &v2, 2, 3},
		{"v3 into full-batch loader", full.LoadCheckpoint, &v3, 3, 2},
	}
	for _, tc := range cases {
		err := tc.load(bytes.NewReader(tc.buf.Bytes()))
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("%s: got %v, want *VersionError", tc.name, err)
		}
		if ve.Got != tc.got || ve.Want != tc.want {
			t.Fatalf("%s: VersionError{Got:%d, Want:%d}, want {%d, %d}", tc.name, ve.Got, ve.Want, tc.got, tc.want)
		}
		if !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s: error %q does not mention the version", tc.name, err)
		}
	}
}

// TestSampledCheckpointDetectsTruncationEverywhere: a v3 file cut at any
// point fails with a descriptive error — header, dims, cursor, tensors, or
// footer, never a panic or a silent partial restore.
func TestSampledCheckpointDetectsTruncationEverywhere(t *testing.T) {
	tr, err := NewSampledTrainer(testGraph(t), testSampledConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 1 + cut/3 { // dense early, sparser into the tensor bulk
		err := tr.LoadCheckpoint(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("truncation at %d: undescriptive error %v", cut, err)
		}
	}
}

// TestSampledCheckpointDetectsCorruption: a flipped byte anywhere under the
// footer's coverage surfaces as *CorruptCheckpointError.
func TestSampledCheckpointDetectsCorruption(t *testing.T) {
	tr, err := NewSampledTrainer(testGraph(t), testSampledConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{12, 40, buf.Len() / 2, buf.Len() - 8} {
		bad := append([]byte(nil), buf.Bytes()...)
		bad[at] ^= 0x40
		err := tr.LoadCheckpoint(bytes.NewReader(bad))
		var corrupt *CorruptCheckpointError
		// Flips in the typed header fields may fail the magic/dims checks
		// before the footer; payload flips must reach the CRC comparison.
		if at >= 40 && !errors.As(err, &corrupt) {
			t.Fatalf("flip at %d: got %v, want *CorruptCheckpointError", at, err)
		}
		if err == nil {
			t.Fatalf("flip at %d not detected", at)
		}
	}
}

// TestSampledCheckpointSeedMismatch: the cursor indexes a seed-determined
// batch sequence, so restoring under a different sampling seed is refused.
func TestSampledCheckpointSeedMismatch(t *testing.T) {
	g := testGraph(t)
	a, err := NewSampledTrainer(g, testSampledConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := testSampledConfig(2)
	other.Seed = 8
	b, err := NewSampledTrainer(g, other)
	if err != nil {
		t.Fatal(err)
	}
	err = b.LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not refused: %v", err)
	}
}

// TestSaveCheckpointAtomic: the shared temp+rename path installs a loadable
// file on success, leaves the previous checkpoint untouched when the writer
// fails partway, and never strands temp files.
func TestSaveCheckpointAtomic(t *testing.T) {
	tr, err := NewSampledTrainer(testGraph(t), testSampledConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.mgk")

	if err := SaveCheckpointAtomic(path, tr.SaveCheckpoint); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadCheckpoint(f); err != nil {
		t.Fatalf("atomic save produced an unloadable file: %v", err)
	}
	f.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A save that dies mid-write must not clobber the installed file.
	fail := SaveCheckpointAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return fmt.Errorf("writer died")
	})
	if fail == nil {
		t.Fatal("failing save reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed save clobbered the previous checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files left in checkpoint dir: %v", entries)
	}
}
