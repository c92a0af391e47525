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
// seed whose int64 is negative. One more row pins the degree sequences.
func TestBTERFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  BTERConfig
		hub  bool // the first affinity block spans all N vertices
		want string
	}{
		{"hub", DefaultBTER(3000, 40, 1), true,
			"16f8a8d85893ca7dbb167da37cc3621c95af3ef029322300dd541b72be7c0788"},
		{"hub-seed3", DefaultBTER(2000, 52, 3), true,
			"c1c9af5744c786b3f6fc3481dcae2aaec21c781d5f8874e937e352cae03cb62b"},
		{"frac1", BTERConfig{N: 600, AvgDegree: 8, PowerLawExp: 2.4, CommunityFrac: 1, Seed: 5}, false,
			"1facd54593fafac352a84e576f8539cb8cd88c07946f6976c3a46e44e2e43cfc"},
		{"frac1.5", BTERConfig{N: 600, AvgDegree: 8, PowerLawExp: 2.4, CommunityFrac: 1.5, Seed: 6}, false,
			"fc92d86e02cd1d840e01f5bf378b4de55206c57bcb5c39e9a736b94f2642952d"},
		{"collide", DefaultBTER(200, 150, 7), false,
			"ce0fe02c44b532e9a242bd08e4dd5ae827adb0d8999b4d8bfecd055a75fa551f"},
		{"n1", DefaultBTER(1, 1, 8), false,
			"374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
		{"n2", DefaultBTER(2, 1, 9), false,
			"359ad77c04cfcb7e9de6cca919c4924ff161d0dbdedbc0e20211649dc3b9ad99"},
		{"n3", DefaultBTER(3, 2, 10), false,
			"f1e9d4e2420940a1167313cfbe61ff884f8b8fd6e00d77286c854f116a2bedb1"},
		{"seed0", DefaultBTER(500, 6, 0), false,
			"3c731a2357267ce2877f8593a91b9538af6982f48727c29f32ec442565ec144b"},
		{"negative-seed", DefaultBTER(500, 6, 1<<63|12345), false,
			"0addc6bb035e079c72206e2b1bfb182489eda20435226f7773525705185bafcb"},
	}
	degrees, b := sha256.New(), make([]byte, 8)
	for _, c := range cases {
		for _, d := range degreeSequence(c.cfg) {
			binary.LittleEndian.PutUint64(b, uint64(d))
			degrees.Write(b)
		}
		if c.hub {
			if d := degreeSequence(c.cfg); d[0] != c.cfg.N-1 {
				t.Fatalf("%s: hub degree %d, want N-1 = %d", c.name, d[0], c.cfg.N-1)
			}
		}
		if got := csrDigest(BTER(c.cfg)); got != c.want {
			t.Errorf("%s: BTER digest %s, want %s", c.name, got, c.want)
		}
	}
	// Every degree sequence above, in table order: it reads math/rand's
	// stream, which the edges' draws left, and is pinned to the bits it had.
	if got, want := hex.EncodeToString(degrees.Sum(nil)), "880259091a4cce5ba030261430f154efe646f8a37efec346abca7a4ce8ab674c"; got != want {
		t.Errorf("degree sequences digest %s, want %s", got, want)
	}
	g := Generate("fp", DefaultBTER(400, 6, 21), 16, 5, false)
	if got, want := datasetDigest(g), "2294fe8c13bec7a06a310d47a7a37ec759705531b52265a657cf398e3c612c53"; got != want {
		t.Errorf("Generate labels/features digest %s, want %s", got, want)
	}
}
