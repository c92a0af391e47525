// Package pool is the process-wide persistent worker pool that every CPU
// kernel and the epoch replay executor share. Before it existed, each
// ParallelSpMM/ParallelGemm call spawned fresh goroutines sized to its own
// worker count, so N concurrent replay tasks launched N×Workers goroutines
// and oversubscribed the host — parallel replay ran *slower* than serial
// (the wall-clock matrix before PR 3). With one shared pool there is a single
// worker budget: N concurrent kernels each effectively get ~Workers/N
// lanes, and a lone kernel (a hub-tile SpMM while every other device waits
// on a broadcast) still spreads across the whole machine because idle
// workers steal its chunks.
//
// The stealing granularity is the chunk, not the kernel: a parallel loop
// publishes a shared chunk cursor, the caller drains chunks itself (so a
// loop always completes even when every worker is busy — nested parallel
// loops inside replayed closures cannot deadlock), and idle workers pick
// up "lane" activations from the queue and steal chunks from the same
// cursor until it runs dry. Chunk boundaries are a pure function of the
// loop shape and the per-call lane cap — never of how many workers happen
// to be idle — so every kernel result is bit-identical no matter how the
// chunks land on workers.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerLane is the oversplit factor of ParallelFor: more chunks than
// lanes lets fast lanes steal from slow ones (nnz-skewed SpMM chunks, a
// lane preempted by the OS) at negligible cursor-increment cost.
const chunksPerLane = 4

var (
	mu      sync.Mutex
	cond    = sync.NewCond(&mu)
	queue   []func() // FIFO of pending activations; head is the next to run
	head    int
	workers int  // goroutines serving the queue
	started bool // first-use initialization done
)

// ensureLocked spawns the initial GOMAXPROCS workers on first use. Callers
// hold mu.
func ensureLocked() {
	if !started {
		started = true
		growLocked(runtime.GOMAXPROCS(0))
	}
}

func growLocked(n int) {
	for workers < n {
		workers++
		go serve()
	}
}

// serve is one persistent worker: it sleeps on the queue between
// activations and never exits — steady-state training pays no goroutine
// start-up per kernel or epoch.
func serve() {
	for {
		mu.Lock()
		for head == len(queue) {
			cond.Wait()
		}
		fn := queue[head]
		queue[head] = nil
		head++
		if head == len(queue) {
			queue = queue[:0]
			head = 0
		}
		mu.Unlock()
		fn()
	}
}

// Size returns the current worker count (GOMAXPROCS at first use, more
// after Grow).
func Size() int {
	mu.Lock()
	defer mu.Unlock()
	ensureLocked()
	return workers
}

// Grow raises the worker count to at least n. The replay executor calls it
// with its in-flight budget: replayed closures may block on each other's
// side effects in tests, so the pool must be able to hold that many
// closures in flight even when GOMAXPROCS is smaller. Kernel loops never
// need Grow — their lanes only go idle, never block.
func Grow(n int) {
	mu.Lock()
	defer mu.Unlock()
	ensureLocked()
	growLocked(n)
}

// Submit enqueues fn to run on some pool worker. It never blocks; ordering
// between submissions is FIFO activation (completion order depends on the
// closures themselves).
func Submit(fn func()) {
	mu.Lock()
	ensureLocked()
	queue = append(queue, fn)
	cond.Signal()
	mu.Unlock()
}

// forTask is one chunked parallel loop in flight: a shared cursor that
// caller and stolen lanes drain together.
type forTask struct {
	cursor atomic.Int64
	done   atomic.Int64
	chunks int64
	fn     func(chunk int)
	fin    chan struct{}
}

// drain claims chunks off the shared cursor until none remain. The lane
// that completes the last chunk closes fin. A lane activated after the
// cursor ran dry (its work was stolen) returns immediately.
func (t *forTask) drain() {
	for {
		c := t.cursor.Add(1) - 1
		if c >= t.chunks {
			return
		}
		t.fn(int(c))
		if t.done.Add(1) == t.chunks {
			close(t.fin)
		}
	}
}

// ForChunks runs fn(c) for every c in [0, chunks) across up to maxLanes
// concurrent lanes (maxLanes <= 0: GOMAXPROCS), the caller being one of
// them. It returns when every chunk has completed. Each chunk runs exactly
// once; which lane runs it is unspecified, so fn calls for different
// chunks must be independent (write-disjoint).
func ForChunks(chunks, maxLanes int, fn func(chunk int)) {
	if chunks <= 0 {
		return
	}
	if maxLanes <= 0 {
		maxLanes = runtime.GOMAXPROCS(0)
	}
	if chunks == 1 || maxLanes <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	t := &forTask{chunks: int64(chunks), fn: fn, fin: make(chan struct{})}
	helpers := maxLanes - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	lane := t.drain
	mu.Lock()
	ensureLocked()
	for i := 0; i < helpers; i++ {
		queue = append(queue, lane)
	}
	cond.Broadcast()
	mu.Unlock()
	t.drain()
	<-t.fin
}

// ParallelFor splits [0, n) into contiguous chunks (chunksPerLane per
// lane, so idle lanes can steal from loaded ones) and runs fn(lo, hi) on
// each across up to maxLanes lanes. The chunk boundaries depend only on n
// and maxLanes — never on runtime idleness — so loops whose per-index work
// is deterministic produce bit-identical results at any pool state.
func ParallelFor(n, maxLanes int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	lanes := maxLanes
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	if lanes <= 1 {
		fn(0, n)
		return
	}
	chunks := lanes * chunksPerLane
	if chunks > n {
		chunks = n
	}
	ForChunks(chunks, lanes, func(c int) {
		fn(c*n/chunks, (c+1)*n/chunks)
	})
}
