// Command mggcn-verify runs the repository's verification passes over the
// recorded epoch graphs of the shipped training strategies. Each strategy
// (and, where a pass certifies it, its elastic P-1 degradation) is recorded
// once as a subject, under a comm.Meter and with the executor's stamps read
// by memcheck.MeteredSlabs, and every pass consumes the same recording:
//
//	san         static happens-before check over declared buffer accesses,
//	            the §4.2 L+3 live-slab bound, a shadow replay, and seeded
//	            adversarial replays that must stay bit-identical
//	schedcheck  collective matching / deadlock freedom, shape-flow typing,
//	            closed-form == annotated == metered communication volume
//	memcheck    closed-form peak == liveness high-water == allocation meter,
//	            byte-exact per device, plus paper-scale fit verdicts
//	chaos       seeded fault scenarios in (strategy, fault, seed) order: each
//	            must survive, recovering to the fault-free result
//	all         every pass above over one set of recordings
//
//	go run ./cmd/mggcn-verify all -json
//	go run ./cmd/mggcn-verify san -strategy 1d-row -seeds 8
//	go run ./cmd/mggcn-verify san -ignore-fences   # model removed fences
//	go run ./cmd/mggcn-verify schedcheck -gpus 8 -memscale 3
//	go run ./cmd/mggcn-verify chaos -strategy sampled -fault flaky-sampler
//
// Verdict lines go to stdout; -json replaces them with one report (subjects
// with task counts, passes with elapsed_ms and findings, cross-checks, fit
// verdicts, chaos scenarios), which the chaos pass on its own always emits.
// Exits 0 when every pass holds and 1 on any finding. With -ignore-fences
// the san expectation inverts: the fence-removed model must produce
// conflicts (the graphs genuinely rely on the fences), so none is a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mggcn/internal/core"
	"mggcn/internal/gen"
	"mggcn/internal/graph"
	"mggcn/internal/memcheck"
	"mggcn/internal/sim"
)

// verifier is one invocation: the flag values, the dataset, the memoized
// subjects and the report the passes fill in.
type verifier struct {
	// cfg is every subject's base configuration — all optimizations on;
	// -machine, -gpus, -memscale, -hidden and -layers land in it.
	cfg     core.Config
	machine string // -machine as typed
	only    string // -strategy
	graph   *graph.Graph

	seeds     int
	noFences  bool
	fitScale  int
	fitHidden int
	epochs    int
	faultKind string
	jsonOut   bool
	out       io.Writer // verdict lines and the JSON report

	all      bool // running every pass
	subjects map[string]*subject
	report   report
	pass     *passReport // the pass currently running
}

type report struct {
	Machine     string                `json:"machine"`
	GPUs        int                   `json:"gpus"`
	Subjects    []subjectReport       `json:"subjects,omitempty"`
	Passes      []*passReport         `json:"passes"`
	CrossChecks []crossCheck          `json:"cross_checks,omitempty"`
	Fit         []memcheck.FitVerdict `json:"fit_verdicts,omitempty"`
	Epochs      int                   `json:"epochs,omitempty"`
	Scenarios   []scenario            `json:"scenarios,omitempty"`
}

type subjectReport struct {
	Strategy string `json:"strategy"`
	P        int    `json:"gpus"`
	Tasks    int    `json:"tasks"`
}

type passReport struct {
	Pass      string   `json:"pass"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Findings  []string `json:"findings,omitempty"`
}

// passes in `all` order. Each returns its verdict line for a clean run.
var passes = []struct {
	name string
	run  func(*verifier) string
}{
	{"san", (*verifier).sanPass},
	{"schedcheck", (*verifier).schedcheckPass},
	{"memcheck", (*verifier).memcheckPass},
	{"chaos", (*verifier).chaosPass},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// fatal is an error no pass can turn into a finding: fatalf raises it
// wherever it arises, and run reports it and exits 1.
type fatal struct{ error }

func fatalf(format string, args ...interface{}) { panic(fatal{fmt.Errorf(format, args...)}) }

// run is one invocation: args without the program name, verdict lines or
// the JSON report on stdout, diagnostics on stderr. It returns the exit
// code: 0 when every pass holds, 1 on a finding or an error, 2 on a bad flag.
func run(args []string, stdout io.Writer) (code int) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case fatal:
			fmt.Fprintf(os.Stderr, "mggcn-verify: %v\n", r.error)
			code = 1
		default:
			panic(r)
		}
	}()
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		fatalf("usage: mggcn-verify <san|schedcheck|memcheck|chaos|all> [flags]")
	}
	which := args[0]

	v := &verifier{all: which == "all", out: stdout, subjects: map[string]*subject{}, cfg: core.DefaultConfig(sim.MachineSpec{}, 4, 1)}
	flags := flag.NewFlagSet("mggcn-verify "+which, flag.ContinueOnError)
	flags.StringVar(&v.machine, "machine", "a100", "machine: v100 or a100")
	flags.IntVar(&v.cfg.P, "gpus", v.cfg.P, "number of GPUs (1-8; chaos needs 2)")
	var names []string
	for _, s := range strategies {
		names = append(names, s.name)
	}
	flags.StringVar(&v.only, "strategy", "all", strings.Join(names, ", ")+", or all")
	flags.IntVar(&v.cfg.Hidden, "hidden", 16, "hidden layer width")
	flags.IntVar(&v.cfg.Layers, "layers", v.cfg.Layers, "layer count")
	n := flags.Int("n", 160, "synthetic vertex count")
	degree := flags.Int("degree", 8, "synthetic average degree")
	features := flags.Int("features", 12, "synthetic feature width")
	classes := flags.Int("classes", 4, "synthetic class count")
	flags.IntVar(&v.cfg.MemScale, "memscale", v.cfg.MemScale, "dataset scale factor S")
	flags.IntVar(&v.seeds, "seeds", 2, "san: adversarial replay seeds per strategy; chaos: fault seeds per scenario")
	flags.BoolVar(&v.noFences, "ignore-fences", false, "san: model removed cross-stream fences; conflicts are then expected")
	flags.IntVar(&v.fitScale, "scale", 1, "memcheck: catalog scale divisor for fit verdicts (1 = paper scale)")
	flags.IntVar(&v.fitHidden, "fit-hidden", 512, "memcheck: hidden width for fit verdicts")
	flags.IntVar(&v.epochs, "epochs", 4, "chaos: effective training epochs per scenario")
	flags.StringVar(&v.faultKind, "fault", "all", "chaos: "+strings.Join(sampledFaultKinds, ", ")+", or all")
	flags.BoolVar(&v.jsonOut, "json", false, "emit one JSON report instead of verdict lines (implied by the chaos pass alone)")
	if err := flags.Parse(args[1:]); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	v.jsonOut = v.jsonOut || which == "chaos"

	var err error
	if v.cfg.Spec, err = sim.ParseMachine(v.machine); err != nil {
		fatalf("%v", err)
	}
	if v.only != "all" && lookup(v.only) == nil {
		fatalf("unknown strategy %q", v.only)
	}
	v.graph = gen.Generate("verify", gen.DefaultBTER(*n, float64(*degree), 99), *features, *classes, false)
	v.report = report{Machine: v.cfg.Spec.Name, GPUs: v.cfg.P}

	failed := false
	for _, p := range passes {
		if !v.all && which != p.name {
			continue
		}
		v.pass = &passReport{Pass: p.name}
		v.report.Passes = append(v.report.Passes, v.pass)
		start := time.Now()
		verdict := p.run(v)
		v.pass.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		if len(v.pass.Findings) == 0 {
			v.say("mggcn-verify %s: %s\n", p.name, verdict)
		} else {
			failed = true
			fmt.Fprintf(os.Stderr, "mggcn-verify %s: %d finding(s)\n", p.name, len(v.pass.Findings))
		}
	}
	if len(v.report.Passes) == 0 {
		fatalf("unknown pass %q (want san, schedcheck, memcheck, chaos or all)", which)
	}
	if v.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v.report); err != nil {
			fatalf("%v", err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// say prints a verdict line unless the JSON report replaces them.
func (v *verifier) say(format string, args ...interface{}) {
	if !v.jsonOut {
		fmt.Fprintf(v.out, format, args...)
	}
}

// finding records one failure of the running pass and prints it.
func (v *verifier) finding(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	v.pass.Findings = append(v.pass.Findings, msg)
	v.say("%s\n", msg)
}
