package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mggcn/internal/tensor"
)

// Checkpoint framing, shared by the full-batch (version 2) and sampled
// (version 3) formats: magic, version, layer dims, a version-specific
// payload, and a CRC32-IEEE footer over everything before it. The
// full-batch payload is the optimizer step plus per-layer weights and Adam
// first/second moments (device 0's copy — replicas are identical); the
// sampled payload prepends the sampler cursor (seed, epoch, next batch
// index) so a mid-epoch kill resumes bit-identically. Restoring copies the
// state onto every device so the replicated invariant holds.
//
// The footer is the corruption guard: a truncated file fails with a
// truncation error (the payload or the footer is missing), and a bit-flipped
// one fails the checksum comparison — a damaged checkpoint is reported, never
// silently restored. Version 1 (no footer) is no longer readable; retrain or
// re-save rather than trusting an unverifiable file.
const (
	ckptMagic          = 0x4d474b50 // "MGKP"
	ckptVersion        = 2          // full-batch Trainer
	ckptVersionSampled = 3          // SampledTrainer (adds the sampler cursor)
)

// CorruptCheckpointError reports a checkpoint whose checksum footer does not
// match its contents.
type CorruptCheckpointError struct {
	Stored, Computed uint32
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("core: checkpoint corrupted: stored checksum %08x, computed %08x", e.Stored, e.Computed)
}

// VersionError reports a checkpoint whose version field is not the one this
// loader reads: full-batch trainers write version 2, sampled trainers
// version 3, and version 1 predates the checksum footer entirely. The two
// current formats deliberately refuse each other — a sampled resume without
// its cursor would silently replay the wrong batches.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("core: checkpoint version %d, this loader reads version %d (full-batch trainers write v2, sampled trainers v3; version 1 files predate the checksum footer and cannot be verified)", e.Got, e.Want)
}

// crcWriter tees everything written through it into a running CRC.
type crcWriter struct {
	w   io.Writer
	sum hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum.Write(p[:n])
	return n, err
}

// crcReader tees everything read through it into a running CRC.
type crcReader struct {
	r   io.Reader
	sum hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.sum.Write(p[:n])
	return n, err
}

// truncated converts the io EOF pair into a descriptive error: a short read
// mid-structure means the file ends before the format says it should.
func truncated(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("core: truncated checkpoint: file ends inside %s", what)
	}
	return fmt.Errorf("core: reading checkpoint %s: %w", what, err)
}

// writeCheckpoint frames one checkpoint of the replicas: magic, version,
// the dims vector, the version's cursor words (none in version 2) and the
// replicas' state flow through the CRC, and the CRC32 footer lands last,
// outside the sum. Phantom replicas have no state to save: both trainers
// refuse here, before a byte is written.
func (r *replicas) writeCheckpoint(w io.Writer, version uint32, dims []int, cursor ...uint64) error {
	if r.phantom {
		return fmt.Errorf("core: cannot checkpoint a phantom-mode trainer")
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw, sum: crc32.NewIEEE()}
	le := binary.LittleEndian
	for _, v := range []uint32{ckptMagic, version, uint32(len(dims))} {
		if err := binary.Write(cw, le, v); err != nil {
			return err
		}
	}
	for _, d := range dims {
		if err := binary.Write(cw, le, uint32(d)); err != nil {
			return err
		}
	}
	for _, x := range cursor {
		if err := binary.Write(cw, le, x); err != nil {
			return err
		}
	}
	if err := r.writeState(cw, le); err != nil {
		return err
	}
	if err := binary.Write(bw, le, cw.sum.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// readCheckpoint validates the frame writeCheckpoint produced: magic, the
// exact expected version (anything else is a typed *VersionError), a dims
// match, the cursor words into cursor, the staged state, then the footer
// comparison. The caller applies what it read only after readCheckpoint
// returns nil — the footer verdict comes last, and a damaged file must
// never leave a half-restored model. Every length comes from the trainer
// (dims, the replicas' shapes), never from a count in the file. Phantom
// replicas refuse before reading.
func (r *replicas) readCheckpoint(rd io.Reader, version uint32, dims []int, cursor ...*uint64) (*modelState, error) {
	if r.phantom {
		return nil, fmt.Errorf("core: cannot restore into a phantom-mode trainer")
	}
	br := bufio.NewReader(rd)
	cr := &crcReader{r: br, sum: crc32.NewIEEE()}
	le := binary.LittleEndian
	var magic, ver, nDims uint32
	for _, dst := range []*uint32{&magic, &ver, &nDims} {
		if err := binary.Read(cr, le, dst); err != nil {
			return nil, truncated("header", err)
		}
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("core: not a checkpoint (magic %#x)", magic)
	}
	if ver != version {
		return nil, &VersionError{Got: ver, Want: version}
	}
	if int(nDims) != len(dims) {
		return nil, fmt.Errorf("core: checkpoint has %d dims, trainer has %d", nDims, len(dims))
	}
	for i := range dims {
		var d uint32
		if err := binary.Read(cr, le, &d); err != nil {
			return nil, truncated("layer dims", err)
		}
		if int(d) != dims[i] {
			return nil, fmt.Errorf("core: checkpoint dim[%d]=%d, trainer has %d", i, d, dims[i])
		}
	}
	for _, dst := range cursor {
		if err := binary.Read(cr, le, dst); err != nil {
			return nil, truncated("sampler cursor", err)
		}
	}
	st, err := r.readState(cr, le)
	if err != nil {
		return nil, err
	}
	// Footer: read the stored CRC outside the summed stream and compare.
	computed := cr.sum.Sum32()
	var stored uint32
	if err := binary.Read(br, le, &stored); err != nil {
		return nil, truncated("checksum footer", err)
	}
	if stored != computed {
		return nil, &CorruptCheckpointError{Stored: stored, Computed: computed}
	}
	if _, err := br.ReadByte(); err == nil { // an accepted file saves back byte for byte
		return nil, fmt.Errorf("core: checkpoint continues past its checksum footer")
	}
	return st, nil
}

// SaveCheckpointAtomic writes a checkpoint through save to a temp file in
// path's directory, syncs it, and renames it into place — the one shared
// atomic path for full-batch (v2) and sampled (v3) checkpoints. A crash
// mid-write leaves the previous checkpoint intact instead of a truncated
// one.
func SaveCheckpointAtomic(path string, save func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// SaveCheckpoint writes the model and optimizer state to w, ending with the
// CRC32 footer LoadCheckpoint verifies. Phantom-mode trainers have no state
// to save and return an error.
func (tr *Trainer) SaveCheckpoint(w io.Writer) error {
	return tr.writeCheckpoint(w, ckptVersion, tr.Dims)
}

// LoadCheckpoint restores model and optimizer state saved by
// SaveCheckpoint into every device replica, verifying the CRC32 footer
// before any device state is touched. The trainer's layer dims must match
// the checkpoint's. Truncation and corruption come back as descriptive
// errors — never a panic, never a half-restored model.
func (tr *Trainer) LoadCheckpoint(r io.Reader) error {
	st, err := tr.readCheckpoint(r, ckptVersion, tr.Dims)
	if err != nil {
		return err
	}
	tr.restore(st)
	return nil
}

// writeState streams device 0's replica — the optimizer step, then the
// per-layer weight and Adam-moment triples in layer order: the payload tail
// both formats share.
func (r *replicas) writeState(cw io.Writer, le binary.ByteOrder) error {
	step, m, v := r.opts[0].State()
	if err := binary.Write(cw, le, uint64(step)); err != nil {
		return err
	}
	for l, w := range r.weights[0] {
		for _, mat := range []*tensor.Dense{w, m[l], v[l]} {
			if err := binary.Write(cw, le, mat.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

// readState reads what writeState wrote into fresh tensors shaped like the
// replicas — staged, so nothing touches device state before the footer
// verdict; the caller hands the result to restore.
func (r *replicas) readState(cr io.Reader, le binary.ByteOrder) (*modelState, error) {
	var step uint64
	if err := binary.Read(cr, le, &step); err != nil {
		return nil, truncated("optimizer step", err)
	}
	st := &modelState{step: int(step)}
	for l, w := range r.weights[0] {
		for _, dst := range []*[]*tensor.Dense{&st.weights, &st.m, &st.v} {
			mat := tensor.NewDense(w.Rows, w.Cols)
			if err := binary.Read(cr, le, mat.Data); err != nil {
				return nil, truncated(fmt.Sprintf("layer %d tensors", l), err)
			}
			*dst = append(*dst, mat)
		}
	}
	return st, nil
}
