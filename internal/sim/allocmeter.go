package sim

import (
	"maps"
	"strconv"
	"sync"
)

// GraphExecObserver is an ExecObserver that also wants graph-scope
// bracketing: BeginGraph runs once per Execute call, before any task,
// with the half-open task-index range [start, end) the replay will cover.
// The executor detects the interface by type assertion on Graph.Observer,
// so plain ExecObservers keep working unchanged.
type GraphExecObserver interface {
	ExecObserver
	BeginGraph(g *Graph, start, end int)
}

// AllocMeter is a byte-accurate allocation high-water meter over a replayed
// task graph: the measured leg of internal/memcheck's three-way memory
// cross-check (closed form == static liveness == this meter). Installed as
// a Graph's Observer (which forces serial replay, so charge order is a
// real topological execution order), it charges each §4.2 slab's full
// capacity (BufRegistry.Capacity x 4 bytes) to its device at the slab's
// first executed access and releases it after its last, tracking the
// per-device high-water in bytes and in simultaneously-charged slab count.
// Device and slab membership are what the buffer was registered with
// (BufRegistry.Owner). Buffers outside the slab universe are not metered,
// and capacity-zero ones (handoff slot pseudo-buffers) charge zero bytes,
// so neither moves the high-water.
type AllocMeter struct {
	mu  sync.Mutex
	reg *BufRegistry
	// remaining[id] counts the not-yet-executed tasks accessing the buffer
	// (each task counted once even when it both reads and writes).
	remaining map[BufID]int
	charged   map[BufID]bool
	slabBytes map[string]int64 // device -> charged slab bytes
	slabCount map[string]int
	peakSlab  map[string]int64
	peakCount map[string]int
}

// NewAllocMeter returns a meter ready to install as Graph.Observer.
func NewAllocMeter() *AllocMeter {
	return &AllocMeter{
		remaining: make(map[BufID]int),
		charged:   make(map[BufID]bool),
		slabBytes: make(map[string]int64),
		slabCount: make(map[string]int),
		peakSlab:  make(map[string]int64),
		peakCount: make(map[string]int),
	}
}

// DeviceKey names device dev in the per-device result maps of the meter
// and of memcheck's liveness pass ("d0", "d1", ...).
func DeviceKey(dev int) string { return "d" + strconv.Itoa(dev) }

// BeginGraph precomputes each buffer's access count over the tasks this
// Execute call will replay. Live state resets (an epoch boundary releases
// everything); the running peaks persist so multi-epoch runs report the
// run-wide high-water.
func (m *AllocMeter) BeginGraph(g *Graph, start, end int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = g.Reg
	m.remaining = make(map[BufID]int)
	m.charged = make(map[BufID]bool)
	m.slabBytes = make(map[string]int64)
	m.slabCount = make(map[string]int)
	for i := start; i < end; i++ {
		for _, b := range g.Tasks[i].Buffers() {
			m.remaining[b]++
		}
	}
}

// Before charges every slab the task touches for the first time.
func (m *AllocMeter) Before(t *Task) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg == nil {
		return
	}
	for _, b := range t.Buffers() {
		if m.charged[b] {
			continue
		}
		m.charged[b] = true
		d, slab, ok := m.reg.Owner(b)
		if !ok || !slab {
			continue
		}
		dev := DeviceKey(d)
		m.slabBytes[dev] += m.reg.Capacity(b) * 4
		m.slabCount[dev]++
		if m.slabBytes[dev] > m.peakSlab[dev] {
			m.peakSlab[dev] = m.slabBytes[dev]
		}
		if m.slabCount[dev] > m.peakCount[dev] {
			m.peakCount[dev] = m.slabCount[dev]
		}
	}
}

// After releases every slab whose last access the task was.
func (m *AllocMeter) After(t *Task) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg == nil {
		return
	}
	for _, b := range t.Buffers() {
		m.remaining[b]--
		if m.remaining[b] > 0 || !m.charged[b] {
			continue
		}
		m.charged[b] = false
		d, slab, ok := m.reg.Owner(b)
		if !ok || !slab {
			continue
		}
		dev := DeviceKey(d)
		m.slabBytes[dev] -= m.reg.Capacity(b) * 4
		m.slabCount[dev]--
	}
}

// SlabPeakBytes returns the per-device high-water over the §4.2 slab
// universe, in bytes — the quantity the closed-form
// and liveness certifier legs must match.
func (m *AllocMeter) SlabPeakBytes() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.peakSlab)
}

// SlabPeakCount returns the per-device high-water of simultaneously
// charged slabs — the replay-measured twin of memcheck.PeakLiveSlabs' Count.
func (m *AllocMeter) SlabPeakCount() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.peakCount)
}
