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

// replicationFactor returns the c of the strategy (1 except for 1.5D).
func (s Strategy) replicationFactor() int {
	if s == Strategy15D {
		return 2
	}
	return 1
}

func (s Strategy) String() string {
	switch s {
	case Strategy1DRow:
		return "1D-row"
	case Strategy1DCol:
		return "1D-col"
	case Strategy15D:
		return "1.5D"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// validate checks the strategy against the GPU count.
func (s Strategy) validate(p int) error {
	switch s {
	case Strategy1DRow, Strategy1DCol:
		return nil
	case Strategy15D:
		if p%2 != 0 {
			return fmt.Errorf("core: 1.5D needs an even GPU count, got %d", p)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown strategy %d", int(s))
	}
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
// partitioning — the §5.2 design-choice ablation. OrderingDefault honors
// the Config.Permute flag (random when true, natural when false).
type Ordering int

const (
	OrderingDefault Ordering = iota
	OrderingNatural
	OrderingRandom
	OrderingDegreeSorted
	OrderingBFS
	OrderingBlockCyclic
)

func (o Ordering) String() string {
	switch o {
	case OrderingDefault:
		return "default"
	case OrderingNatural:
		return "natural"
	case OrderingRandom:
		return "random"
	case OrderingDegreeSorted:
		return "degree-sorted"
	case OrderingBFS:
		return "bfs"
	case OrderingBlockCyclic:
		return "block-cyclic"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}
