package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"mggcn/internal/gen"
)

// checkpointer is the save/load pair both trainers expose.
type checkpointer interface {
	SaveCheckpoint(w io.Writer) error
	LoadCheckpoint(r io.Reader) error
}

// fuzzTrainers returns a full-batch and a sampled trainer on the 200-vertex
// golden graph, the v2 and v3 loaders the fuzz target drives. Features,
// hidden width and classes are narrow so a checkpoint is about 150 bytes:
// the engine minimizes every new-coverage input, byte by byte.
func fuzzTrainers(tb testing.TB) (*Trainer, *SampledTrainer) {
	tb.Helper()
	g := gen.Generate("ckpt-fuzz", goldenBTER, 3, 2, false)
	cfg, scfg := testConfig(2), testSampledConfig(2)
	cfg.Hidden, scfg.Hidden = 2, 2
	full, err := NewTrainer(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sampled, err := NewSampledTrainer(g, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	return full, sampled
}

func saved(tb testing.TB, c checkpointer) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.SaveCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadCheckpoint drives readCheckpoint through both payload readers, the
// full-batch v2 and the sampled v3, on arbitrary bytes. Each loader either
// refuses an input with an error or accepts it, and then saving the restored
// state must write the input back byte for byte. The corpus is seeded with
// both writers' output before training and after a step.
func FuzzLoadCheckpoint(f *testing.F) {
	full, sampled := fuzzTrainers(f)
	f.Add(saved(f, full))
	f.Add(saved(f, sampled))
	mustEpoch(full)
	if _, err := sampled.RunSteps(1); err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, full))
	f.Add(saved(f, sampled))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []checkpointer{full, sampled} {
			if err := c.LoadCheckpoint(bytes.NewReader(data)); err != nil {
				continue
			}
			if back := saved(t, c); !bytes.Equal(back, data) {
				t.Fatalf("%T accepted %d bytes that save back as %d different ones", c, len(data), len(back))
			}
		}
	})
}

// reframe rewrites a checkpoint's CRC footer after an edit to its body.
func reframe(ckpt []byte) []byte {
	body := ckpt[:len(ckpt)-4]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// TestLoadCheckpointRejectsMalformedFrames pins what the fuzz target
// demands of two well-checksummed inputs the loaders used to accept: bytes
// after the footer, and a sampler cursor no run can reach (a batch index
// that is negative as an int, which the next epoch indexed the plan with).
func TestLoadCheckpointRejectsMalformedFrames(t *testing.T) {
	full, sampled := fuzzTrainers(t)
	for _, c := range []checkpointer{full, sampled} {
		ckpt := append(saved(t, c), 0)
		if err := c.LoadCheckpoint(bytes.NewReader(ckpt)); err == nil || !strings.Contains(err.Error(), "past its checksum footer") {
			t.Errorf("%T: trailing byte accepted: %v", c, err)
		}
	}
	ckpt := bytes.Clone(saved(t, sampled))
	// magic, version, len(dims), dims, then seed, epoch, next batch.
	at := 4*(3+len(sampled.Dims)) + 16
	binary.LittleEndian.PutUint64(ckpt[at:], 1<<63)
	if err := sampled.LoadCheckpoint(bytes.NewReader(reframe(ckpt))); err == nil || !strings.Contains(err.Error(), "cursor") {
		t.Fatalf("cursor batch 2^63 accepted: %v", err)
	}
	if _, err := sampled.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}
