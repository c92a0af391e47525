package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mggcn/internal/graph"
	"mggcn/internal/sparse"
)

// csrDigest hashes a CSR's structure: RowPtr then ColIdx, little-endian.
func csrDigest(a *sparse.CSR) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range a.RowPtr {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	for _, c := range a.ColIdx {
		binary.LittleEndian.PutUint32(b[:4], uint32(c))
		h.Write(b[:4])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// datasetDigest hashes what Generate adds to the structure: labels, feature
// bits and the three split masks.
func datasetDigest(g *graph.Graph) string {
	h := sha256.New()
	var b [4]byte
	for _, l := range g.Labels {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	for _, x := range g.Features.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	for _, m := range [][]bool{g.TrainMask, g.ValMask, g.TestMask} {
		for _, in := range m {
			if in {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBTERFingerprint pins BTER's output bit for bit. Every golden
// downstream (graphs, curves, sampled, fig12, all) starts from these
// graphs, so a faster generator must reproduce them exactly. The table
// covers a hub block spanning the whole graph (the benchmark workloads'
// shape), CommunityFrac at and past 1 (p clamps to 1: every pair draws a
// hit), a dense config whose Chung-Lu phase mostly collides, N ≤ 3, and a
// seed whose int64 is negative.
func TestBTERFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  BTERConfig
		hub  bool // the first affinity block spans all N vertices
		want string
	}{
		{"hub", DefaultBTER(3000, 40, 1), true,
			"650236b6f7d786a45f8466c1f4da9fb3dfaf5d2df028ab1ff07595ead1cca7d3"},
		{"hub-seed3", DefaultBTER(2000, 52, 3), true,
			"0c4a96e90bd2e9358a758fd4c2a3940d7ebdc00e2f167e1d9e0d4de14836f6a3"},
		{"frac1", BTERConfig{N: 600, AvgDegree: 8, PowerLawExp: 2.4, CommunityFrac: 1, Seed: 5}, false,
			"ffd8f2762a5a5ac40d5aab09b464c8c1975749415a0196c3452aeca37312e357"},
		{"frac1.5", BTERConfig{N: 600, AvgDegree: 8, PowerLawExp: 2.4, CommunityFrac: 1.5, Seed: 6}, false,
			"22e2af95753988816e91b8c5957bee44bc80e740b2d39acd598904f0a5695194"},
		{"collide", DefaultBTER(200, 150, 7), false,
			"92e929bb0ce45ed8657feefa6b740f269050d6035a32b9ffb060b1e954cdf519"},
		{"n1", DefaultBTER(1, 1, 8), false,
			"374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
		{"n2", DefaultBTER(2, 1, 9), false,
			"359ad77c04cfcb7e9de6cca919c4924ff161d0dbdedbc0e20211649dc3b9ad99"},
		{"n3", DefaultBTER(3, 2, 10), false,
			"bd589131603c5b655c802d76ebfc8b97601eb4e17dcf2044dc8c6c0e17fc71b5"},
		{"seed0", DefaultBTER(500, 6, 0), false,
			"8fb619eab20da383dd8a1fc4a84fe7f7445666fe64b87afbf815e68f1374b4b5"},
		{"negative-seed", DefaultBTER(500, 6, 1<<63|12345), false,
			"d53d54402e857bffc552732076263323e7436e5f38ab462081b749b0c3a0488e"},
	}
	for _, c := range cases {
		if c.hub {
			if d := degreeSequence(c.cfg, newStream(c.cfg.Seed)); d[0] != c.cfg.N-1 {
				t.Fatalf("%s: hub degree %d, want N-1 = %d", c.name, d[0], c.cfg.N-1)
			}
		}
		if got := csrDigest(BTER(c.cfg)); got != c.want {
			t.Errorf("%s: BTER digest %s, want %s", c.name, got, c.want)
		}
	}
	g := Generate("fp", DefaultBTER(400, 6, 21), 16, 5, false)
	if got, want := datasetDigest(g), "f2da3317a9fbbda85ef5c31e484242a1a70cae419cd55a38d815df08406c6231"; got != want {
		t.Errorf("Generate labels/features digest %s, want %s", got, want)
	}
}
