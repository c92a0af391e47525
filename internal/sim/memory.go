package sim

import (
	"fmt"
	"sync"
)

// BufID identifies one registered device-resident buffer in a BufRegistry.
// Zero is reserved for "unregistered": a *tensor.Dense whose Buf stamp is 0
// carries no identity and is invisible to the sanitizer.
type BufID int

// BufRegistry names the buffers whose accesses tasks declare (Task.Reads/
// Task.Writes) so internal/san can check the recorded graph. Registration
// is idempotent by name — a trainer that records one graph per epoch reuses
// the same IDs — and a registered buffer may optionally be *tracked* by
// attaching its backing float32 storage, which lets the shadow execute mode
// observe actual reads and writes. Untracked entries (attention tiles,
// host-side slots) still participate in the static happens-before check.
// Safe for concurrent use.
type BufRegistry struct {
	mu     sync.Mutex
	names  []string // index = int(id) - 1
	data   [][]float32
	byName map[string]BufID
	// caps holds each buffer's element capacity (0: unknown); dims holds an
	// exact matrix extent for buffers that are whole matrices rather than
	// reshapeable slabs ({0,0}: none). Both feed schedcheck's bounds and
	// seed-shape checks; the executor and sanitizer ignore them.
	caps []int64
	dims [][2]int
	// owner is the device a buffer resides on plus one (0: host-side or
	// shared, owned by no device); slab marks the §4.2 slab universe. Both
	// are fixed at registration (RegisterOn) and read back through Owner.
	owner []int
	slab  []bool
}

// NewBufRegistry returns an empty registry.
func NewBufRegistry() *BufRegistry {
	return &BufRegistry{byName: make(map[string]BufID)}
}

// Register returns the ID for name, allocating one on first use. The buffer
// belongs to no device: host-side stores, shared model parameters.
func (r *BufRegistry) Register(name string) BufID { return r.register(name, 0, false) }

// RegisterOn is Register for a buffer resident on device dev. slab marks it
// as one of the large reshapeable §4.2 buffers — the universe the
// allocation meter and memcheck's liveness pass bound at L+3 per device.
// Names stay free-form and diagnostics-only; nothing parses them.
func (r *BufRegistry) RegisterOn(name string, dev int, slab bool) BufID {
	return r.register(name, dev+1, slab)
}

func (r *BufRegistry) register(name string, owner int, slab bool) BufID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		return id
	}
	r.names = append(r.names, name)
	r.owner = append(r.owner, owner)
	r.slab = append(r.slab, slab)
	r.data = append(r.data, nil)
	r.caps = append(r.caps, 0)
	r.dims = append(r.dims, [2]int{})
	id := BufID(len(r.names))
	r.byName[name] = id
	return id
}

// SetCapacity records a slab buffer's element capacity: views of any shape
// are legal as long as rows x cols fits. Re-setting replaces the value.
func (r *BufRegistry) SetCapacity(id BufID, elems int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.caps[id-1] = elems
	r.dims[id-1] = [2]int{}
}

// SetShape records a whole-matrix buffer's exact extent (weights, feature
// shards): the capacity follows as rows x cols, and schedcheck seeds the
// buffer's live shape from it.
func (r *BufRegistry) SetShape(id BufID, rows, cols int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.caps[id-1] = int64(rows) * int64(cols)
	r.dims[id-1] = [2]int{rows, cols}
}

// Capacity returns the buffer's element capacity (0: unknown / zero ID).
func (r *BufRegistry) Capacity(id BufID) int64 {
	if id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.caps[id-1]
}

// Shape returns the buffer's exact extent when one was declared.
func (r *BufRegistry) Shape(id BufID) (rows, cols int, ok bool) {
	if id == 0 {
		return 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.dims[id-1]
	return d[0], d[1], d != [2]int{}
}

// Track attaches backing storage to a registered buffer so the shadow
// execute mode can hash and poison it. Re-tracking replaces the storage
// (per-epoch temporaries re-materialize under the same name).
func (r *BufRegistry) Track(id BufID, data []float32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.data[id-1] = data
}

// Owner returns the device the buffer was registered on and whether it is a
// §4.2 slab; ok is false for buffers no device owns and for the zero ID.
func (r *BufRegistry) Owner(id BufID) (dev int, slab, ok bool) {
	if id == 0 {
		return 0, false, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.owner[id-1] - 1, r.slab[id-1], r.owner[id-1] > 0
}

// Name returns the buffer's registration name ("" for the zero ID).
func (r *BufRegistry) Name(id BufID) string {
	if id == 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.names[id-1]
}

// Data returns the tracked backing storage, or nil for untracked buffers
// and the zero ID.
func (r *BufRegistry) Data(id BufID) []float32 {
	if id == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data[id-1]
}

// Len returns the number of registered buffers. Valid IDs are 1..Len().
func (r *BufRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.names)
}

// OOMError reports a failed device allocation, mirroring the paper's
// "Out of Memory" bars.
type OOMError struct {
	Pool      string
	Label     string
	Requested int64
	Used      int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("sim: out of memory on %s allocating %q: %d B requested, %d/%d B used",
		e.Pool, e.Label, e.Requested, e.Used, e.Capacity)
}

// Pool is a per-device memory accountant. It tracks usage and refuses
// allocations beyond capacity; nothing is freed, so usage is also the peak.
// It is safe for concurrent use (each simulated device runs on its own
// goroutine).
type Pool struct {
	name     string
	capacity int64

	mu   sync.Mutex
	used int64
}

// NewPool creates a pool with the given byte capacity.
func NewPool(name string, capacity int64) *Pool {
	return &Pool{name: name, capacity: capacity}
}

// Alloc reserves bytes, failing with an *OOMError naming label if the pool
// would exceed capacity.
func (p *Pool) Alloc(label string, bytes int64) error {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative allocation %d", bytes))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used+bytes > p.capacity {
		return &OOMError{Pool: p.name, Label: label, Requested: bytes, Used: p.used, Capacity: p.capacity}
	}
	p.used += bytes
	return nil
}

// Used returns current live bytes.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}
