// Package graphio stores and reloads graph datasets — this reproduction's
// stand-in for PIGO, the graph I/O library the paper uses — in a versioned
// binary format holding the full dataset (CSR adjacency, features, labels,
// masks), so a generated dataset is written once and reloaded fast.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"mggcn/internal/graph"
	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// magic identifies the binary dataset format; version gates layout changes.
const (
	magic   = 0x4d474743 // "MGGC"
	version = 1
)

// WriteBinary serializes the dataset to w. Phantom datasets store
// structure only; the flag is preserved on load.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	writeU32 := func(v uint32) error { return binary.Write(bw, le, v) }
	if err := writeU32(magic); err != nil {
		return err
	}
	if err := writeU32(version); err != nil {
		return err
	}
	name := []byte(g.Name)
	if err := writeU32(uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	header := []uint32{uint32(g.N()), uint32(g.FeatDim), uint32(g.Classes)}
	for _, h := range header {
		if err := writeU32(h); err != nil {
			return err
		}
	}
	flags := uint32(0)
	if g.Features != nil {
		flags |= 1
	}
	if g.Labels != nil {
		flags |= 2
	}
	if g.TrainMask != nil {
		flags |= 4
	}
	if err := writeU32(flags); err != nil {
		return err
	}
	// Adjacency (structure-only CSR; edge weights are derived on load).
	if err := binary.Write(bw, le, int64(g.M())); err != nil {
		return err
	}
	if err := binary.Write(bw, le, g.Adj.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, le, g.Adj.ColIdx); err != nil {
		return err
	}
	if g.Features != nil {
		if err := binary.Write(bw, le, g.Features.Data); err != nil {
			return err
		}
	}
	if g.Labels != nil {
		if err := binary.Write(bw, le, g.Labels); err != nil {
			return err
		}
	}
	if g.TrainMask != nil {
		for _, m := range [][]bool{g.TrainMask, g.ValMask, g.TestMask} {
			if err := binary.Write(bw, le, boolsToBytes(m)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a dataset written by WriteBinary. Every section is
// read in bounded chunks, so a header claiming more data than the input holds
// fails with a truncation error once the bytes run out instead of allocating
// for its claim up front; bytes after the dataset are an error too.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var m, v uint32
	if err := binary.Read(br, le, &m); err != nil {
		return nil, fmt.Errorf("graphio: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("graphio: bad magic %#x", m)
	}
	if err := binary.Read(br, le, &v); err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("graphio: unsupported version %d", v)
	}
	var nameLen uint32
	if err := binary.Read(br, le, &nameLen); err != nil {
		return nil, err
	}
	name, err := readSection[byte](br, int64(nameLen), "name")
	if err != nil {
		return nil, err
	}
	var n, featDim, classes, flags uint32
	for _, dst := range []*uint32{&n, &featDim, &classes, &flags} {
		if err := binary.Read(br, le, dst); err != nil {
			return nil, err
		}
	}
	if flags&^7 != 0 {
		return nil, fmt.Errorf("graphio: unknown flags %#x", flags)
	}
	var nnz int64
	if err := binary.Read(br, le, &nnz); err != nil {
		return nil, err
	}
	// Plausibility limits: a corrupted header fails here, naming the field,
	// rather than at the end of the input.
	const maxVertices = 1 << 28
	const maxFeatDim = 1 << 20
	const maxNNZ = int64(1) << 33
	if n > maxVertices || featDim > maxFeatDim || classes > maxVertices {
		return nil, fmt.Errorf("graphio: implausible header (n=%d, d=%d, classes=%d)", n, featDim, classes)
	}
	if nnz < 0 || nnz > maxNNZ || (n > 0 && nnz > int64(n)*int64(n)) {
		return nil, fmt.Errorf("graphio: implausible edge count %d for %d vertices", nnz, n)
	}
	if int64(n)*int64(featDim) > 1<<31 {
		return nil, fmt.Errorf("graphio: implausible feature payload %d x %d", n, featDim)
	}
	adj := &sparse.CSR{Rows: int(n), Cols: int(n)}
	if adj.RowPtr, err = readSection[int64](br, int64(n)+1, "row pointers"); err != nil {
		return nil, err
	}
	if adj.ColIdx, err = readSection[int32](br, nnz, "column indices"); err != nil {
		return nil, err
	}
	g := &graph.Graph{Name: string(name), Adj: adj, FeatDim: int(featDim), Classes: int(classes)}
	if flags&1 != 0 {
		data, err := readSection[float32](br, int64(n)*int64(featDim), "features")
		if err != nil {
			return nil, err
		}
		g.Features = &tensor.Dense{Rows: int(n), Cols: int(featDim), Stride: int(featDim), Data: data}
	}
	if flags&2 != 0 {
		if g.Labels, err = readSection[int32](br, int64(n), "labels"); err != nil {
			return nil, err
		}
	}
	if flags&4 != 0 {
		masks := make([][]bool, 3)
		for i := range masks {
			buf, err := readSection[byte](br, int64(n), "masks")
			if err != nil {
				return nil, err
			}
			if masks[i], err = bytesToBools(buf); err != nil {
				return nil, err
			}
		}
		g.TrainMask, g.ValMask, g.TestMask = masks[0], masks[1], masks[2]
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("graphio: trailing data after the dataset")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: corrupt dataset: %w", err)
	}
	return g, nil
}

// readSection reads count little-endian values of one section in chunks of
// at most 64 Ki values, so the slice grows only as fast as the input
// actually delivers them.
func readSection[T byte | int32 | int64 | float32](r io.Reader, count int64, what string) ([]T, error) {
	const chunk = 1 << 16
	buf := make([]T, min(count, chunk))
	out := make([]T, 0, len(buf))
	for int64(len(out)) < count {
		part := buf[:min(count-int64(len(out)), chunk)]
		if err := binary.Read(r, binary.LittleEndian, part); err != nil {
			return nil, fmt.Errorf("graphio: %s truncated after %d of %d values: %w", what, len(out), count, err)
		}
		out = append(out, part...)
	}
	return out, nil
}

func boolsToBytes(b []bool) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		if v {
			out[i] = 1
		}
	}
	return out
}

// bytesToBools decodes a mask section; WriteBinary writes only 0 and 1.
func bytesToBools(b []byte) ([]bool, error) {
	out := make([]bool, len(b))
	for i, v := range b {
		if v > 1 {
			return nil, fmt.Errorf("graphio: mask byte %d at %d is not 0 or 1", v, i)
		}
		out[i] = v == 1
	}
	return out, nil
}
