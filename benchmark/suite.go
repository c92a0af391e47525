package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suiteRounds is how many fresh end-to-end processes the suite gives each
// workload: enough that both full-batch workloads pool the 100 epochs
// epoch_wall_ms_p90 needs (160 and 120 at -seconds 10).
const suiteRounds = 4

// summary is one end-to-end metric on one workload over the suite's
// processes: one value per process and the quartiles
// statistics.quantiles gives for them.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	// Value is the number reported and compared: the median of Values, or
	// for a pooled metric the statistic of all processes' epochs together.
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/value
}

func summarize(unit string, values []float64) summary {
	q1, q2, q3 := quartiles(values)
	return summary{Unit: unit, Values: values, Value: q2, Q1: q1, Q3: q3, Spread: spread(values)}
}

// pooledP90 is epoch_wall_ms_p90 over the epochs of all processes
// together; its spread is that of the processes' own 90th percentiles. ok
// is false where fewer than ten pooled epochs lie beyond the percentile.
func pooledP90(unit string, perProcess [][]float64) (s summary, ok bool) {
	var pool, each []float64
	for _, epochs := range perProcess {
		pool = append(pool, epochs...)
		each = append(each, percentile(epochs, 90))
	}
	if samplesBeyond(len(pool), 90) < 10 {
		return summary{}, false
	}
	s = summarize(unit, each)
	s.Value = percentile(pool, 90)
	s.Spread = (s.Q3 - s.Q1) / s.Value
	return s, true
}

type workloadResult struct {
	// EndToEnd has no entry for a metric that is undefined on the workload
	// (epoch_wall_ms_p90 on the sampled ones); neither has PerLayer.
	EndToEnd     map[string]summary     `json:"end_to_end"`
	EpochsPooled int                    `json:"epochs_pooled"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Seconds    float64                    `json:"seconds"`
	Rounds     int                        `json:"rounds"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// runChild runs one workload in a fresh process of this same binary and
// parses its result line and, for an end-to-end run, its epoch samples.
func runChild(name string, seed uint64, seconds float64, traced bool, out string) (resultLine, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
		"-out", out) // the child writes its trace beside the result file
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return resultLine{}, nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	var samples []float64
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, epochSamplesPrefix+" "); ok {
			if err := json.Unmarshal([]byte(rest), &samples); err != nil {
				return resultLine{}, nil, fmt.Errorf("%s seed %d: epoch samples: %w", name, seed, err)
			}
		}
	}
	return line, samples, nil
}

// runSuite interleaves the workloads round by round (A B C D, A B C D, …)
// so host drift hits all alike, each run in a fresh process, then runs the
// traced pass of each, prints the table and writes the result file.
func runSuite(seed uint64, seconds float64, out string) error {
	res := resultFile{Provenance: collectProvenance(seed), Seconds: seconds, Rounds: suiteRounds, Workloads: map[string]*workloadResult{}}
	values := map[string]map[string][]float64{} // workload -> metric -> per-process values
	epochs := map[string][][]float64{}          // workload -> per-process epoch samples
	for _, w := range workloads {
		res.Workloads[w.Name] = &workloadResult{EndToEnd: map[string]summary{}, PerLayer: map[string]metricValue{}}
		values[w.Name] = map[string][]float64{}
	}
	for r := 0; r < suiteRounds; r++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", r+1, suiteRounds, w.Name)
			line, samples, err := runChild(w.Name, seed, seconds, false, out)
			if err != nil {
				return err
			}
			wr := res.Workloads[w.Name]
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			epochs[w.Name] = append(epochs[w.Name], samples)
			for _, d := range perRun {
				values[w.Name][d.Name] = append(values[w.Name][d.Name], line.Metrics[d.Name].Value)
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "traced %s\n", w.Name)
		line, _, err := runChild(w.Name, seed, seconds, true, out)
		if err != nil {
			return err
		}
		wr := res.Workloads[w.Name]
		wr.Attempted += line.Attempted
		wr.Failed += line.Failed
		for _, d := range perLayer {
			if d.definedOn(w) {
				wr.PerLayer[d.Name] = line.Metrics[d.Name]
			}
		}
		for _, d := range perRun {
			wr.EndToEnd[d.Name] = summarize(d.Unit, values[w.Name][d.Name])
		}
		for _, e := range epochs[w.Name] {
			wr.EpochsPooled += len(e)
		}
		if s, ok := pooledP90("ms", epochs[w.Name]); ok {
			wr.EndToEnd["epoch_wall_ms_p90"] = s
		}
		// One seed throughout: the simulated clock and the loss must repeat
		// exactly from process to process.
		for _, name := range []string{"sim_epoch_s", "loss_final"} {
			vs := wr.EndToEnd[name].Values
			wr.Attempted++
			for _, v := range vs {
				if !sameBits(v, vs[0]) {
					wr.Failed++
					fmt.Fprintf(os.Stderr, "benchmark: failed: %s %s does not repeat: %v\n", w.Name, name, vs)
					break
				}
			}
		}
	}
	res.print(os.Stdout)

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// print writes every metric by name with its unit, workload by workload.
func (res resultFile) print(w io.Writer) {
	res.Provenance.print(w)
	for _, wl := range workloads {
		wr := res.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s (%d processes, %d epochs pooled)\n", wl.Name, res.Rounds, wr.EpochsPooled)
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.Name]
			if !ok {
				fmt.Fprintf(w, "%-32s %14s %-8s fewer than ten of %d pooled epochs lie beyond it\n", d.Name, "-", d.Unit, wr.EpochsPooled)
				continue
			}
			fmt.Fprintf(w, "%-32s %14.6g %-8s q1 %.6g q3 %.6g spread %.2f%% bound %.0f%%\n",
				d.Name, s.Value, d.Unit, s.Q1, s.Q3, 100*s.Spread, 100*d.Bound)
		}
		fmt.Fprintf(w, "%-32s %14s failed/attempted\n", "failed_ops_share", fmt.Sprintf("%d/%d", wr.Failed, wr.Attempted))
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v.Value, d.Unit)
			}
		}
	}
}

func readResultFile(path string) (resultFile, error) {
	var res resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// worseBy is how far cand is worse than base as a share of base (negative:
// better), in the metric's own direction.
func worseBy(d metricDef, base, cand float64) float64 {
	if d.Better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// verdict holds a candidate's runs of one metric against the base's.
// It is a regression when the candidate's value is worse than the base's
// by more than the bound. Short of that, where either side's quartile
// spread exceeds the bound the pair is unresolved, not unchanged — unless
// every candidate run reads better than every base run.
func verdict(d metricDef, base, cand summary) string {
	if worseBy(d, base.Value, cand.Value) > d.Bound {
		return "REGRESSED"
	}
	if base.Spread <= d.Bound && cand.Spread <= d.Bound {
		return "ok"
	}
	for _, c := range cand.Values {
		for _, b := range base.Values {
			if worseBy(d, b, c) >= 0 {
				return "unresolved"
			}
		}
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the candidate/base ratio, the bound and the verdict, and reports whether
// anything regressed. Files from hosts with different kernel dispatch or
// core counts measure different machines and are refused; so are files of
// different seeds or epoch counts, which train different models.
func compareFiles(w io.Writer, basePath, candPath string) (regressed bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResultFile(candPath)
	if err != nil {
		return false, err
	}
	bp, cp := base.Provenance, cand.Provenance
	if bp.KernelImpl != cp.KernelImpl || bp.NumCPU != cp.NumCPU {
		return false, fmt.Errorf("not comparable: %s ran kernel_impl %s on %d CPUs, %s ran %s on %d",
			basePath, bp.KernelImpl, bp.NumCPU, candPath, cp.KernelImpl, cp.NumCPU)
	}
	// loss_final and sim_epoch_s are held to 1 %: that is a statement about
	// one seed and one epoch count.
	if bp.Seed != cp.Seed || !sameBits(base.Seconds, cand.Seconds) {
		return false, fmt.Errorf("not comparable: %s ran seed %d for %v s, %s seed %d for %v s",
			basePath, bp.Seed, base.Seconds, candPath, cp.Seed, cand.Seconds)
	}
	fmt.Fprintf(w, "base %s (%s)\ncand %s (%s)\n", basePath, bp.GitSHA, candPath, cp.GitSHA)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %-8s %9s %6s  %s\n", "workload", "metric", "base", "cand", "unit", "cand/base", "bound", "verdict")
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cand.Workloads[wl.Name]
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from a file", wl.Name)
		}
		for _, d := range endToEnd {
			bs, inBase := b.EndToEnd[d.Name]
			cs, inCand := c.EndToEnd[d.Name]
			if !inBase && !inCand {
				continue // undefined on this workload
			}
			if inBase != inCand {
				return false, fmt.Errorf("%s: %s is in one file only", wl.Name, d.Name)
			}
			v := verdict(d, bs, cs)
			regressed = regressed || v == "REGRESSED"
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %-8s %9.4f %5.0f%%  %s\n",
				wl.Name, d.Name, bs.Value, cs.Value, d.Unit, cs.Value/bs.Value, 100*d.Bound, v)
		}
		// failed_ops_share has bound 0: any failed op on the candidate
		// that the base did not have is a regression.
		v := "ok"
		if c.Failed*b.Attempted > b.Failed*c.Attempted {
			v, regressed = "REGRESSED", true
		}
		fmt.Fprintf(w, "%-16s %-20s %14s %14s %-8s %9s %5.0f%%  %s\n", wl.Name, "failed_ops_share",
			fmt.Sprintf("%d/%d", b.Failed, b.Attempted), fmt.Sprintf("%d/%d", c.Failed, c.Attempted), "", "", 0.0, v)
	}
	return regressed, nil
}
