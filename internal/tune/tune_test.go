package tune

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mggcn/internal/sparse"
	"mggcn/internal/tensor"
)

// TestDeterministicChoiceReproduces is the autotuner's acceptance
// contract: for a fixed profile, two independent derivations and saves
// must produce byte-identical choice files.
func TestDeterministicChoiceReproduces(t *testing.T) {
	p := Profile{Impl: "avx2", Lanes: 8, NumCPU: 4, GoMaxProcs: 4}
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.json")
	f2 := filepath.Join(dir, "b.json")
	if err := DeterministicChoice(p).Save(f1); err != nil {
		t.Fatal(err)
	}
	if err := DeterministicChoice(p).Save(f2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(f1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(f2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("deterministic choice files differ:\n%s\nvs\n%s", b1, b2)
	}
	if len(b1) == 0 || b1[len(b1)-1] != '\n' {
		t.Fatalf("choice file should be newline-terminated JSON")
	}
}

// TestDeterministicChoiceValid: choices for every plausible profile must
// pass Validate (Apply would panic otherwise) and record every probe
// shape's winner.
func TestDeterministicChoiceValid(t *testing.T) {
	for _, p := range []Profile{
		{Impl: "scalar", Lanes: 1, NumCPU: 1, GoMaxProcs: 1},
		{Impl: "avx2", Lanes: 8, NumCPU: 64, GoMaxProcs: 64},
		{Impl: "neon", Lanes: 4, NumCPU: 8, GoMaxProcs: 8},
	} {
		c := DeterministicChoice(p)
		if err := c.Validate(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if len(c.GemmShapes) != len(probeShapes) {
			t.Fatalf("%+v: %d shape winners, want %d", p, len(c.GemmShapes), len(probeShapes))
		}
		for _, s := range c.GemmShapes {
			if s.Winner != "flat" && s.Winner != "blocked" {
				t.Fatalf("%+v: shape %dx%dx%d winner %q", p, s.M, s.K, s.N, s.Winner)
			}
		}
		// The regression shape (B footprint 64 KiB) must resolve to flat —
		// that's the fix the measured 0.87x demanded.
		if c.GemmShapes[0].Winner != "flat" {
			t.Fatalf("%+v: 2048x128x128 resolved to %q, want flat", p, c.GemmShapes[0].Winner)
		}
	}
}

// TestSaveLoadRoundTrip: Load returns exactly what Save wrote and rejects
// corrupt files.
func TestSaveLoadRoundTrip(t *testing.T) {
	c := DeterministicChoice(HostProfile())
	path := filepath.Join(t.TempDir(), "choice.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockK != c.BlockK || got.SpMMColTile != c.SpMMColTile || got.FlatMaxBytes != c.FlatMaxBytes || got.Mode != c.Mode {
		t.Fatalf("round trip changed the choice: %+v vs %+v", got, c)
	}
	if err := os.WriteFile(path, []byte(`{"mode":"measured","blockK":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("Load accepted an odd blockK")
	}
	if err := os.WriteFile(path, []byte(`{"mode":"guesswork","blockK":64,"spmmColTile":256}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("Load accepted an unknown mode")
	}
}

// TestApplyInstallsPolicies: Apply must land in the kernel packages'
// policy knobs (and be undoable, since tests share process state).
func TestApplyInstallsPolicies(t *testing.T) {
	defer restorePolicies(snapshotPolicies())
	c := DeterministicChoice(HostProfile())
	c.BlockK, c.FlatMaxBytes, c.SpMMColTile = 32, 16<<10, 128
	c.SellC, c.SellSigma = 4, 128
	c.Apply()
	bk, fm := tensor.GemmPolicy()
	if bk != 32 || fm != 16<<10 || sparse.SpMMColTile() != 128 {
		t.Fatalf("Apply landed blockK=%d flatMax=%d colTile=%d", bk, fm, sparse.SpMMColTile())
	}
	if sc, ss := sparse.SellDefaults(); sc != 4 || ss != 128 {
		t.Fatalf("Apply landed sellC=%d sellSigma=%d", sc, ss)
	}
}

// TestMeasuredChoiceValid exercises the wall-clock path end to end with a
// single rep (timings are noisy; validity and shape coverage are the
// contract, not which candidate wins) and checks it restores the policies
// it perturbed while racing candidates.
func TestMeasuredChoiceValid(t *testing.T) {
	if testing.Short() {
		t.Skip("measured mode times real kernels")
	}
	before := snapshotPolicies()
	c := MeasuredChoice(7, 1)
	if snapshotPolicies() != before {
		t.Fatalf("MeasuredChoice left the kernel policies perturbed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Mode != "measured" || c.Seed != 7 {
		t.Fatalf("mode/seed not recorded: %+v", c)
	}
	if len(c.GemmShapes) != len(probeShapes) {
		t.Fatalf("%d shape winners, want %d", len(c.GemmShapes), len(probeShapes))
	}
	inGrid := func(v int, grid []int) bool {
		for _, g := range grid {
			if v == g {
				return true
			}
		}
		return false
	}
	if !inGrid(c.SellC, sellCCandidates) || !inGrid(c.SellSigma, sellSigmaCandidates) {
		t.Fatalf("measured SELL pair (%d, %d) not from the candidate grids", c.SellC, c.SellSigma)
	}
}

// TestMeasuredSellRecorded: the snapshot must carry the SELL pair through
// a save/load cycle so Apply on a later run installs the measured winner.
func TestMeasuredSellRecorded(t *testing.T) {
	c := DeterministicChoice(HostProfile())
	c.SellC, c.SellSigma = 16, 2048
	path := filepath.Join(t.TempDir(), "choice.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SellC != 16 || got.SellSigma != 2048 {
		t.Fatalf("SELL pair lost in round trip: %+v", got)
	}
	if err := os.WriteFile(path, []byte(`{"mode":"measured","blockK":64,"spmmColTile":256}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("Load accepted a choice with no SELL pair (Apply would panic)")
	}
}

// TestSyntheticOperandsDeterministic: the measured mode's operand streams
// are seed-addressed, not time- or global-RNG-addressed.
func TestSyntheticOperandsDeterministic(t *testing.T) {
	a := syntheticDense(3, 16, 16)
	b := syntheticDense(3, 16, 16)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("syntheticDense(3) diverged at %d", i)
		}
	}
	ca := syntheticCSR(3, 32, 32, 4)
	cb := syntheticCSR(3, 32, 32, 4)
	if ca.NNZ() != cb.NNZ() {
		t.Fatalf("syntheticCSR(3) nnz diverged")
	}
	for i := range ca.ColIdx {
		if ca.ColIdx[i] != cb.ColIdx[i] || ca.Vals[i] != cb.Vals[i] {
			t.Fatalf("syntheticCSR(3) diverged at entry %d", i)
		}
	}
	sa := syntheticSkewedCSR(5, 256, 256, 4, 64)
	sb := syntheticSkewedCSR(5, 256, 256, 4, 64)
	if sa.NNZ() != sb.NNZ() {
		t.Fatalf("syntheticSkewedCSR(5) nnz diverged")
	}
	for i := range sa.ColIdx {
		if sa.ColIdx[i] != sb.ColIdx[i] {
			t.Fatalf("syntheticSkewedCSR(5) diverged at entry %d", i)
		}
	}
	if sa.RowPtr[1]-sa.RowPtr[0] <= sa.RowPtr[2]-sa.RowPtr[1] {
		t.Fatalf("syntheticSkewedCSR row 0 is not a hub")
	}
}
