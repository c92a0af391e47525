package core

import "fmt"

// Strategy selects the distributed SpMM algorithm of §4.1 / §5.1.
type Strategy int

const (
	// Strategy1DRow is the paper's choice: 1D row distribution, one
	// broadcast per stage (Fig 2-3). Fully partitioned memory.
	Strategy1DRow Strategy = iota
	// Strategy1DCol is §4.1's alternative: 1D column distribution; each
	// stage computes local partials and reduces them at the owner. Same
	// memory, communication is reductions instead of broadcasts.
	Strategy1DCol
	// Strategy15D is CAGNET's 1.5D algorithm with replication factor 2:
	// the machine splits into two replica groups that each run half the
	// stages with intra-group broadcasts, then sum their partial results
	// across groups. Halves broadcast volume, doubles feature memory —
	// faster on NVSwitch machines, slower on DGX-1 (§5.1).
	Strategy15D
)

// strategies is the one place a strategy is defined: the name the CLIs and
// the verifiers' closed forms (schedcheck.VolumeForm, memcheck.PeakForm) know
// it by, its display name, its replication factor c — every block is stored
// on c devices, one per replica group of P/c — and whether its staged SpMM
// reduces output blocks (stagedSpMMCol) or broadcasts input blocks
// (stagedSpMMRow, which c parameterizes: 1D-row is its c = 1 case).
var strategies = [...]struct {
	name, display string
	c             int
	reduceStaged  bool
}{
	Strategy1DRow: {"1d-row", "1D-row", 1, false},
	Strategy1DCol: {"1d-col", "1D-col", 1, true},
	Strategy15D:   {"1.5d", "1.5D", 2, false},
}

// Strategies lists every strategy, in report order.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategies))
	for i := range out {
		out[i] = Strategy(i)
	}
	return out
}

func (s Strategy) known() bool { return s >= 0 && int(s) < len(strategies) }

// Name returns the strategy's flag and closed-form name ("1d-row", "1d-col",
// "1.5d"); match it against Strategies() to parse one.
func (s Strategy) Name() string { return strategies[s].name }

// replicationFactor returns the c of the strategy (1 except for 1.5D).
func (s Strategy) replicationFactor() int { return strategies[s].c }

// reduceStaged reports whether the strategy's staged SpMM reduces outputs
// (1D-col) instead of broadcasting inputs.
func (s Strategy) reduceStaged() bool { return strategies[s].reduceStaged }

func (s Strategy) String() string {
	if !s.known() {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategies[s].display
}

// validate checks the strategy against the GPU count: the replica groups
// must divide the machine evenly.
func (s Strategy) validate(p int) error {
	if !s.known() {
		return fmt.Errorf("core: unknown strategy %d", int(s))
	}
	if p%s.replicationFactor() != 0 { // c is 1 or 2, so "even" says it
		return fmt.Errorf("core: %s needs an even GPU count, got %d", s, p)
	}
	return nil
}

// Degraded returns the strategy a run continues with on p devices: s itself
// while it is valid there, otherwise the paper's default 1D-row — 1.5D needs
// an even group, so it falls back when a device loss leaves an odd survivor
// count. The elastic path and the verifiers' P-1 rows share this rule.
func (s Strategy) Degraded(p int) Strategy {
	if s.validate(p) != nil {
		return Strategy1DRow
	}
	return s
}

// Ordering selects the vertex ordering applied before uniform
// partitioning — the §5.2 design-choice ablation. The zero value keeps the
// natural order; DefaultConfig picks OrderingRandom, the paper's choice.
type Ordering int

const (
	OrderingNatural Ordering = iota
	OrderingRandom
	OrderingDegreeSorted
	OrderingBFS
	OrderingBlockCyclic
)

var orderingNames = [...]string{
	OrderingNatural: "natural", OrderingRandom: "random",
	OrderingDegreeSorted: "degree-sorted", OrderingBFS: "bfs", OrderingBlockCyclic: "block-cyclic",
}

func (o Ordering) known() bool { return o >= 0 && int(o) < len(orderingNames) }

// validate rejects values outside the declared orderings.
func (o Ordering) validate() error {
	if !o.known() {
		return fmt.Errorf("core: unknown ordering %d", int(o))
	}
	return nil
}

func (o Ordering) String() string {
	if !o.known() {
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
	return orderingNames[o]
}
