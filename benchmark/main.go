// Command benchmark is the repository's yardstick: four fixed training
// workloads, each measured end to end through the public mggcn API on the
// host's wall clock and on the simulated DGX-A100 clock, and layer by layer
// in a separate traced run. README.md has the workload table and the map
// from each layer metric to the end-to-end metric it should move.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash benchmark/run.sh -workload fullbatch-spmm -seed 1 -seconds 10 -trace 0
//
// prints every metric by name with its unit and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}. -trace 1 is the traced
// run with the per-layer metrics. Without -workload the runner is the whole
// suite: every workload in four fresh processes, interleaved, then one
// traced process per workload, written to -out. -compare a.json b.json
// holds two such files against each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxProcs caps GOMAXPROCS: the load model is one process on at most four
// cores, Workers and ExecWorkers at their defaults (= GOMAXPROCS).
const maxProcs = 4

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	procStart := time.Now()
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	var (
		name    = flag.String("workload", "all", "workload to run in this process; \"all\" runs the suite in child processes")
		seed    = flag.Uint64("seed", 1, "weights, vertex permutation and sampler; a claim should also hold on another one")
		out     = flag.String("out", filepath.Join(".bench_build", "results.json"), "suite: result file; traces are written beside it")
		seconds = flag.Float64("seconds", 10, "scales the fixed epoch count of a process's timed phase, which is sized for 10")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *name == "all":
		err = runSuite(*seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, filepath.Dir(*out), procStart)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne is one process's work: one workload, end to end or traced, with
// the verification checks outside the timed phases.
func runOne(name string, seed uint64, seconds float64, traced bool, outDir string, procStart time.Time) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	prov := collectProvenance(seed)
	prov.print(os.Stdout)

	o := &ops{}
	var metrics *metricSet
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
		metrics, err = runTraced(o, w, seed, path)
		if err == nil {
			fmt.Println("trace", path)
		}
	} else {
		var res timedResult
		res, err = runTimed(o, w, seed, seconds, procStart)
		if err == nil {
			metrics = res.Metrics
			samples, _ := json.Marshal(res.EpochMS) // floats always marshal
			fmt.Printf("%s %s\n", epochSamplesPrefix, samples)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	verify(o, seed)
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", e)
	}

	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics.report()}
	for _, d := range metrics.defs {
		fmt.Printf("%-32s %16.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("failed_ops_share %d/%d\n", o.failed, o.attempted)
	return json.NewEncoder(os.Stdout).Encode(line)
}

// epochSamplesPrefix starts the output line that carries an end-to-end
// run's raw epoch wall-clocks, which the suite pools across processes.
const epochSamplesPrefix = "epochs_ms"
