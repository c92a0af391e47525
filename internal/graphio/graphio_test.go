package graphio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/tensor"
)

func TestBinaryRoundTripFull(t *testing.T) {
	g := gen.Generate("rt", gen.DefaultBTER(300, 8, 5), 16, 4, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("metadata lost: %s n=%d m=%d", got.Name, got.N(), got.M())
	}
	if !tensor.Equal(got.Features, g.Features, 0) {
		t.Fatalf("features differ")
	}
	for v := range g.Labels {
		if got.Labels[v] != g.Labels[v] {
			t.Fatalf("label %d differs", v)
		}
		if got.TrainMask[v] != g.TrainMask[v] || got.TestMask[v] != g.TestMask[v] {
			t.Fatalf("mask %d differs", v)
		}
	}
	for i := range g.Adj.ColIdx {
		if got.Adj.ColIdx[i] != g.Adj.ColIdx[i] {
			t.Fatalf("adjacency differs at %d", i)
		}
	}
}

func TestBinaryRoundTripPhantom(t *testing.T) {
	g := gen.Generate("ph", gen.DefaultBTER(200, 6, 7), 8, 3, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsPhantom() {
		t.Fatalf("phantom flag lost")
	}
	if got.FeatDim != 8 || got.Classes != 3 {
		t.Fatalf("metadata lost")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a dataset"))); err == nil {
		t.Fatalf("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatalf("empty input accepted")
	}
}

func TestReadBinaryRejectsTruncation(t *testing.T) {
	g := gen.Generate("tr", gen.DefaultBTER(100, 4, 9), 4, 2, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, len(full) / 2, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// A 36-byte header claiming 2^28 vertices and 2^33 edges passes every
// header check; the reader must run out of input, not out of memory.
func TestReadBinaryHugeHeaderIsTruncation(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(hugeHeader())); err == nil {
		t.Fatalf("36-byte header accepted")
	}
}

// hugeHeader is magic, version, an empty name, n = 2^28, d = 0, 1 class,
// no payload flags and nnz = 2^33, with no payload after it.
func hugeHeader() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, magic)
	for _, v := range []uint32{version, 0, 1 << 28, 0, 1, 0} {
		b = le.AppendUint32(b, v)
	}
	return le.AppendUint64(b, 1<<33)
}

// FuzzReadBinary holds ReadBinary to its contract on arbitrary input: it
// never panics, and an input it accepts is exactly what WriteBinary writes
// for the graph it returns.
func FuzzReadBinary(f *testing.F) {
	full := gen.Generate("fz", gen.DefaultBTER(12, 3, 3), 2, 2, false)
	noMasks := *full
	noMasks.TrainMask, noMasks.ValMask, noMasks.TestMask = nil, nil, nil
	phantom := gen.Generate("fz", gen.DefaultBTER(12, 3, 3), 2, 2, true)
	for _, g := range []*graph.Graph{full, &noMasks, phantom} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hugeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes that write back as %d different ones", len(data), buf.Len())
		}
	})
}

func TestBinarySizeReasonable(t *testing.T) {
	g := gen.Generate("sz", gen.DefaultBTER(1000, 10, 3), 8, 4, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	// CSR + features + labels + masks; ballpark check against raw sizes.
	raw := int(g.M())*4 + (g.N()+1)*8 + g.N()*8*4 + g.N()*4 + 3*g.N()
	if buf.Len() < raw/2 || buf.Len() > raw*2 {
		t.Fatalf("binary size %d far from raw %d", buf.Len(), raw)
	}
	_ = fmt.Sprintf("%d", raw)
}

func TestReadBinaryNeverPanicsOnRandomBytes(t *testing.T) {
	// Failure injection: arbitrary byte soup must produce errors, not
	// panics or hangs.
	check := func(data []byte) bool {
		_, err := ReadBinary(bytes.NewReader(data))
		return err != nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryRejectsBitFlips(t *testing.T) {
	g := gen.Generate("flip", gen.DefaultBTER(80, 4, 17), 4, 2, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip bytes in the header region: must never panic; most flips error,
	// a benign flip may still parse — either way Validate guards us.
	for pos := 0; pos < 32 && pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on header flip at %d: %v", pos, r)
				}
			}()
			g2, err := ReadBinary(bytes.NewReader(mut))
			if err == nil && g2.Validate() != nil {
				t.Fatalf("flip at %d produced invalid graph without error", pos)
			}
		}()
	}
}
