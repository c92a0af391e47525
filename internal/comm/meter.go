package comm

import (
	"sync"

	"mggcn/internal/sim"
)

// Meter counts the full-scale float32 words each collective class moves, as
// recorded at collective-issue time from the actual buffer extents and group
// sizes — independently of the sim.Collective annotations, so schedcheck's
// golden test can cross-check annotation-derived volumes against these
// counters with exact integer equality. Attach one to a Group (Sub inherits
// it) and read it after an epoch. Safe for concurrent use; the zero value is
// not usable — call NewMeter.
type Meter struct {
	mu    sync.Mutex
	words map[sim.CollOp]int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{words: make(map[sim.CollOp]int64)}
}

// Add records words moved by one collective of class op. Nil-safe so call
// sites can meter unconditionally.
func (m *Meter) Add(op sim.CollOp, words int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.words[op] += words
	m.mu.Unlock()
}

// Words returns the accumulated words for one collective class.
func (m *Meter) Words(op sim.CollOp) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.words[op]
}

// Reset clears the counters.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.words = make(map[sim.CollOp]int64)
	m.mu.Unlock()
}
