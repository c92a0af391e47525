package sim

import (
	"fmt"
	"time"
)

// StreamID selects one of the per-device CUDA-style streams: the §4.3
// compute/comm pair, plus a sampler stage stream for the factored minibatch
// pipeline (GNNLab-style sample/extract overlapped with training).
type StreamID int

const (
	StreamCompute StreamID = iota // stream 0: kernels
	StreamComm                    // stream 1: collectives
	StreamSample                  // stream 2: sampler stage (sample + extract)
	// NumStreams sizes per-(device, stream) state in the scheduler,
	// executor, and verifiers.
	NumStreams
)

func (s StreamID) String() string {
	switch s {
	case StreamCompute:
		return "compute"
	case StreamComm:
		return "comm"
	case StreamSample:
		return "sample"
	default:
		return fmt.Sprintf("stream(%d)", int(s))
	}
}

// FencePeer returns the stream s exchanges cross-stream fences with, or -1
// when s carries no fences. Only the compute/comm pair fences (the
// anti-dependencies of exec.go's edge contract); the sampler stream hands
// data to trainers exclusively through recorded Deps edges — the
// double-buffer slot dependencies — so fencing it would serialize exactly
// the overlap the pipeline exists to create.
func (s StreamID) FencePeer() StreamID {
	switch s {
	case StreamCompute:
		return StreamComm
	case StreamComm:
		return StreamCompute
	default:
		return -1
	}
}

// Kind classifies tasks for the Fig-5 runtime breakdown.
type Kind int

const (
	KindSpMM Kind = iota
	KindGeMM
	KindActivation
	KindLoss
	KindAdam
	KindComm
	KindSample  // minibatch pipeline: fanout sampling + block compaction
	KindExtract // minibatch pipeline: feature gather (cache hits + host misses)
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindSpMM:
		return "SpMM"
	case KindGeMM:
		return "GeMM"
	case KindActivation:
		return "Activation"
	case KindLoss:
		return "Loss-Layer"
	case KindAdam:
		return "Adam"
	case KindComm:
		return "Comm"
	case KindSample:
		return "Sample"
	case KindExtract:
		return "Extract"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every task kind in display order.
func Kinds() []Kind {
	return []Kind{KindSpMM, KindGeMM, KindActivation, KindLoss, KindAdam, KindComm, KindSample, KindExtract}
}

// Task is one recorded operation in an epoch's task graph. A task occupies
// the given stream on every device in Devices (collectives span the whole
// group); Seconds is its duration at nominal (uncontended) rate.
type Task struct {
	ID      int
	Kind    Kind
	Label   string
	Stage   int // SpMM stage index, -1 when not part of a staged SpMM
	Devices []int
	Stream  StreamID
	Seconds float64
	// MemBound compute tasks are slowed while communication is active on
	// their device (§6.3); comm tasks are always contention-eligible.
	MemBound bool
	Deps     []int
	// Exec is the task's host-side arithmetic, recorded at graph-build
	// time and replayed by Graph.Execute once the task's dependencies have
	// run (nil for tasks with no host-side work). Attach it, with the
	// accesses it makes, with Graph.BindShaped (infallible closures) or
	// Graph.BindShapedE (closures that can fail).
	// A non-nil return cancels the rest of the replay: Execute stops
	// issuing, drains in-flight tasks, and surfaces the failure as a
	// *TaskError.
	Exec func() error
	// Reads and Writes are the task's declared access sets over the
	// BufRegistry: every registered buffer the Exec closure touches.
	// Writes means read-and-write (accumulating kernels and in-place ops
	// read their destination); Reads is read-only access. internal/san
	// checks that every conflicting pair of declared accesses is ordered
	// by the executor's happens-before edges, and its shadow execute mode
	// checks the closure's *actual* accesses stay inside these sets.
	// Declare them with Graph.BindShaped (or, without a closure,
	// Graph.DeclareShaped).
	Reads  []BufID
	Writes []BufID
	// InShapes and OutShapes are the shaped forms of Reads and Writes —
	// the same buffers plus the matrix extents the closure touches them at,
	// recorded by Graph.BindShaped/DeclareShaped for internal/schedcheck's
	// shape-flow typing.
	InShapes  []ViewShape
	OutShapes []ViewShape
	// Coll, on KindComm tasks, annotates the collective's operation, group
	// and payload for schedcheck's matching and cost-certification passes.
	// Attach it with Graph.AnnotateCollective.
	Coll *Collective
}

// Buffers returns the task's accessed buffer set: Reads ∪ Writes with each
// buffer listed once.
func (t *Task) Buffers() []BufID {
	out := make([]BufID, 0, len(t.Reads)+len(t.Writes))
	for _, ids := range [2][]BufID{t.Reads, t.Writes} {
	next:
		for _, b := range ids {
			for _, seen := range out {
				if seen == b {
					continue next
				}
			}
			if b != 0 {
				out = append(out, b)
			}
		}
	}
	return out
}

// Graph accumulates the tasks of one training step/epoch in issue order.
type Graph struct {
	Spec  MachineSpec
	P     int
	Tasks []*Task
	// Reg, when set, names the buffer handles the tasks' declared access
	// sets refer to (sanitizer diagnostics only; the executor ignores it).
	Reg *BufRegistry
	// Observer, when set, brackets every replayed closure with Before/After
	// callbacks. Execute then forces serial replay (one task in flight), so
	// the callbacks observe buffer state exclusively (internal/san's shadow)
	// and need no lock. When a task ran needs no observer: see Stamps.
	Observer ExecObserver
	// Fault, when set, brackets every bound closure with fault-injection
	// callbacks (internal/fault): BeforeTask may delay the task (straggler)
	// or fail it (device crash), AfterTask may corrupt its outputs or fail
	// it. Unlike Observer it does not force serial replay — injected faults
	// must coexist with the interleavings they are meant to disturb.
	Fault FaultHook
	// bound counts tasks carrying an Exec closure; Execute is a no-op at 0.
	bound int
	// executed is Execute's watermark: tasks below it have been replayed.
	executed int
	// Stamps, indexed by task ID, is when each replayed task ran (Stamp),
	// from origin, at any worker count; tasks past the watermark have none.
	Stamps []Stamp
	origin time.Time
	// After maps a task ID to its host-only predecessors (FenceNext): the
	// executor honours them with the fences (EdgeFences), the simulator does
	// not, because they guard host memory a simulated task never touches.
	After map[int][]int
	// fenceNext[d] is what d's next compute task waits for (FenceNext).
	fenceNext [][]int
}

// NewGraph starts an empty task graph over p devices of spec.
func NewGraph(spec MachineSpec, p int) *Graph {
	return &Graph{Spec: spec, P: p, After: map[int][]int{}, fenceNext: make([][]int, p)}
}

// AddCompute appends a compute-stream task on one device and returns its ID.
func (g *Graph) AddCompute(device int, kind Kind, label string, stage int, seconds float64, memBound bool, deps ...int) int {
	return g.add(&Task{
		Kind: kind, Label: label, Stage: stage,
		Devices: []int{device}, Stream: StreamCompute,
		Seconds: seconds, MemBound: memBound, Deps: deps,
	})
}

// AddStage appends a task on an explicit stream of one device — the
// recording form for pipeline stages that are neither plain compute
// (AddCompute pins StreamCompute) nor collectives (AddComm pins
// StreamComm): sampler-stream sample/extract tasks.
func (g *Graph) AddStage(device int, stream StreamID, kind Kind, label string, stage int, seconds float64, memBound bool, deps ...int) int {
	if stream < 0 || stream >= NumStreams {
		panic(fmt.Sprintf("sim: task %q on unknown stream %d", label, int(stream)))
	}
	return g.add(&Task{
		Kind: kind, Label: label, Stage: stage,
		Devices: []int{device}, Stream: stream,
		Seconds: seconds, MemBound: memBound, Deps: deps,
	})
}

// AddComm appends a comm-stream collective spanning devices.
func (g *Graph) AddComm(devices []int, label string, stage int, seconds float64, deps ...int) int {
	ds := make([]int, len(devices))
	copy(ds, devices)
	return g.add(&Task{
		Kind: KindComm, Label: label, Stage: stage,
		Devices: ds, Stream: StreamComm,
		Seconds: seconds, MemBound: false, Deps: deps,
	})
}

func (g *Graph) add(t *Task) int {
	for _, dev := range t.Devices {
		if dev < 0 || dev >= g.P {
			panic(fmt.Sprintf("sim: task %q on device %d of %d", t.Label, dev, g.P))
		}
	}
	for _, d := range t.Deps {
		if d < 0 || d >= len(g.Tasks) {
			panic(fmt.Sprintf("sim: task %q depends on unknown task %d", t.Label, d))
		}
	}
	t.ID = len(g.Tasks)
	if t.Stream == StreamCompute && g.fenceNext[t.Devices[0]] != nil {
		g.After[t.ID], g.fenceNext[t.Devices[0]] = g.fenceNext[t.Devices[0]], nil
	}
	g.Tasks = append(g.Tasks, t)
	return t.ID
}

// FenceNext makes the next compute task recorded on device dev wait for
// tasks ids, host-side only (Graph.After): ids read dev's memory from other
// devices, and no collective may fence the kernel that overwrites it next.
func (g *Graph) FenceNext(dev int, ids ...int) {
	g.fenceNext[dev] = append(g.fenceNext[dev], ids...)
}
