package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/graphs.golden and testdata/curves.golden from this tree")

// goldenBTER is the 200-vertex fixture both golden files are generated on.
var goldenBTER = gen.DefaultBTER(200, 8, 41)

// checkGolden compares out with the committed golden file line by line, or
// rewrites the file under -update and logs how many lines moved (-v shows
// it).
func checkGolden(t *testing.T, path string, out []byte) {
	t.Helper()
	if *updateGolden {
		old, _ := os.ReadFile(path)
		t.Logf("move %s: %d lines", path, linesMoved(old, out))
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(out, []byte{'\n'}), bytes.Split(want, []byte{'\n'})
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("%s line %d changed:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}

// linesMoved counts the lines of a that b does not hold, and of b that a
// does not, each line as often as it occurs.
func linesMoved(a, b []byte) int {
	count := map[string]int{}
	for _, l := range bytes.Split(a, []byte{'\n'}) {
		count[string(l)]++
	}
	for _, l := range bytes.Split(b, []byte{'\n'}) {
		count[string(l)]--
	}
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
}

// graphDigest is one golden line: everything a recorder refactor could move.
// The task hash covers each task's own fields in issue order; the
// happens-before hashes cover the closed relation, queried pairwise, so a
// redundant Deps entry is not a diff and a lost ordering is; the epoch bits
// are what the DES makes of both.
func graphDigest(name string, tg *sim.Graph, epochSeconds float64) string {
	th := sha256.New()
	for _, t := range tg.Tasks {
		fmt.Fprintf(th, "%d|%s|%d|%v|%d|%x|%t|%v|%v|", t.Kind, t.Label, t.Stage, t.Devices,
			t.Stream, math.Float64bits(t.Seconds), t.MemBound, t.InShapes, t.OutShapes)
		if c := t.Coll; c != nil {
			fmt.Fprintf(th, "%d,%d,%v,%d,%d,%d", c.Op, c.Root, c.Group, c.Rows, c.Cols, c.Scale)
		}
		th.Write([]byte{'\n'})
	}
	n := len(tg.Tasks)
	// Two closures: the executor's contract, and the Deps+FIFO subset the
	// DES honours — under the first the cross-stream fences subsume §4.3's
	// double-buffer edges, so only the second sees one of those move.
	var hbSums [2][]byte
	for k, edges := range []sim.Edges{sim.ExecutorEdges, sim.EdgeDeps | sim.EdgeFIFO} {
		hb := tg.HappensBefore(edges)
		hh := sha256.New()
		row := make([]byte, (n+7)/8)
		for b := 0; b < n; b++ {
			clear(row)
			for a := 0; a < b; a++ {
				if hb.Before(a, b) {
					row[a/8] |= 1 << (a % 8)
				}
			}
			hh.Write(row)
		}
		hbSums[k] = hh.Sum(nil)
	}
	return fmt.Sprintf("%s tasks=%d task_sha=%x hb_sha=%x des_hb_sha=%x epoch_bits=%016x\n",
		name, n, th.Sum(nil), hbSums[0], hbSums[1], math.Float64bits(epochSeconds))
}

// TestRecordedGraphsGolden pins the recorded task graphs — every task, the
// orderings between them and the simulated epoch — of each trainer family
// against testdata/graphs.golden. A recorder refactor must leave every line
// byte-identical; `go test ./internal/core -run RecordedGraphsGolden -update`
// rewrites the file when a graph is meant to change. Whatever the golden
// says, a phantom graph must digest exactly like its real twin: phantom mode
// skips the replay, never the recording.
func TestRecordedGraphsGolden(t *testing.T) {
	realG := gen.Generate("graphs-golden", goldenBTER, 12, 4, false)
	phantom := gen.Generate("graphs-golden", goldenBTER, 12, 4, true)
	onOff := map[bool]string{true: "on", false: "off"}

	var out bytes.Buffer
	for _, st := range []Strategy{Strategy1DRow, Strategy1DCol, Strategy15D} {
		for _, p := range []int{st.replicationFactor(), 4, 8} {
			for _, overlap := range []bool{true, false} {
				var realDigest string
				for _, g := range []struct {
					mode  string
					graph *graph.Graph
				}{{"real", realG}, {"phantom", phantom}} {
					cfg := DefaultConfig(sim.DGXA100(), p, 1)
					cfg.Hidden, cfg.Strategy, cfg.Overlap = 16, st, overlap
					tr, err := NewTrainer(g.graph, cfg)
					if err != nil {
						t.Fatal(err)
					}
					stats := mustEpoch(tr)
					name := fmt.Sprintf("%s/p%d/overlap-%s/%s", st, p, onOff[overlap], g.mode)
					line := graphDigest(name, tr.LastGraph(), stats.EpochSeconds)
					out.WriteString(line)
					if _, digest, _ := strings.Cut(line, " "); g.mode == "real" {
						realDigest = digest
					} else if digest != realDigest {
						t.Errorf("%s digests differently from its real twin:\n got %s\nreal %s", name, digest, realDigest)
					}
				}
			}
		}
	}
	// The sampled trainer's phantom twin keeps the real graph's masks (a
	// generated phantom has none), so it plans the same batches.
	structure := *realG
	structure.Features, structure.Labels = nil, nil
	for _, pipeline := range []bool{true, false} {
		var realLine string
		for _, g := range []*graph.Graph{realG, &structure} {
			cfg := testSampledConfig(4)
			cfg.Pipeline = pipeline
			tr, err := NewSampledTrainer(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := tr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			line := graphDigest("sampled/p4/pipeline-"+onOff[pipeline], tr.LastGraph(), stats.EpochSeconds)
			if g == realG {
				out.WriteString(line)
				realLine = line
			} else if line != realLine {
				t.Errorf("phantom sampled graph digests differently from its real twin:\n got %s\nreal %s", line, realLine)
			}
		}
	}

	checkGolden(t, "testdata/graphs.golden", out.Bytes())
}
