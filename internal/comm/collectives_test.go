package comm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

func newGroup(p int) *Group {
	return New(sim.NewGraph(sim.DGXV100(), p))
}

func fillRand(d *tensor.Dense, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
}

func TestBroadcastCopiesData(t *testing.T) {
	c := newGroup(4)
	src := tensor.NewDense(6, 3)
	fillRand(src, 1)
	dst := make([]*tensor.Dense, 4)
	for i := range dst {
		dst[i] = tensor.NewDense(6, 3)
	}
	id := c.Broadcast(2, src, dst, "bcast", 0)
	c.Graph.Execute(2)
	for i := range dst {
		if i == 2 {
			continue
		}
		if !tensor.Equal(dst[i], src, 0) {
			t.Fatalf("device %d did not receive the broadcast", i)
		}
	}
	if id < 0 || len(c.Graph.Tasks) != 1 {
		t.Fatalf("expected exactly one comm task")
	}
	task := c.Graph.Tasks[id]
	if task.Kind != sim.KindComm || len(task.Devices) != 4 {
		t.Fatalf("task wrong: %+v", task)
	}
	if task.Seconds <= 0 {
		t.Fatalf("broadcast task has no duration")
	}
}

func TestBroadcastLeavesRootUntouched(t *testing.T) {
	c := newGroup(2)
	src := tensor.NewDense(2, 2)
	src.Fill(5)
	rootBuf := tensor.NewDense(2, 2)
	rootBuf.Fill(-1)
	other := tensor.NewDense(2, 2)
	c.Broadcast(0, src, []*tensor.Dense{rootBuf, other}, "b", 0)
	c.Graph.Execute(1)
	if rootBuf.At(0, 0) != -1 {
		t.Fatalf("root destination was overwritten")
	}
	if other.At(0, 0) != 5 {
		t.Fatalf("non-root did not receive data")
	}
}

func TestBroadcastPhantomSkipsCopy(t *testing.T) {
	c := newGroup(2)
	src := tensor.NewPhantom(4, 4)
	dst := []*tensor.Dense{tensor.NewPhantom(4, 4), tensor.NewPhantom(4, 4)}
	id := c.Broadcast(0, src, dst, "b", 0)
	if c.Graph.Tasks[id].Seconds <= 0 {
		t.Fatalf("phantom broadcast must still be timed")
	}
	// Bound like a real broadcast; replaying it moves nothing.
	if err := c.Graph.Execute(1); err != nil {
		t.Fatal(err)
	}
	if dst[1].Data != nil {
		t.Fatalf("phantom broadcast materialized its destination")
	}
}

func TestBroadcastShapeMismatchPanics(t *testing.T) {
	c := newGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	c.Broadcast(0, tensor.NewDense(2, 2), []*tensor.Dense{tensor.NewDense(2, 2), tensor.NewDense(3, 2)}, "b", 0)
}

func TestAllReduceSums(t *testing.T) {
	c := newGroup(3)
	bufs := make([]*tensor.Dense, 3)
	for i := range bufs {
		bufs[i] = tensor.NewDense(2, 2)
		bufs[i].Fill(float32(i + 1))
	}
	c.AllReduceSum(bufs, "ar")
	c.Graph.Execute(2)
	for i, b := range bufs {
		for _, v := range b.Data {
			if v != 6 {
				t.Fatalf("device %d value %v, want 6", i, v)
			}
		}
	}
}

func TestAllReduceSingleDeviceIsFreeButValid(t *testing.T) {
	c := newGroup(1)
	bufs := []*tensor.Dense{tensor.NewDense(2, 2)}
	bufs[0].Fill(3)
	id := c.AllReduceSum(bufs, "ar")
	c.Graph.Execute(1)
	if bufs[0].At(0, 0) != 3 {
		t.Fatalf("single-device allreduce changed data")
	}
	if c.Graph.Tasks[id].Seconds != 0 {
		t.Fatalf("single-device allreduce should cost nothing")
	}
}

func TestReduceSumOnlyRoot(t *testing.T) {
	c := newGroup(3)
	bufs := make([]*tensor.Dense, 3)
	for i := range bufs {
		bufs[i] = tensor.NewDense(1, 2)
		bufs[i].Fill(float32(i + 1))
	}
	c.ReduceSum(1, bufs, "red")
	c.Graph.Execute(2)
	if bufs[1].At(0, 0) != 6 {
		t.Fatalf("root sum %v, want 6", bufs[1].At(0, 0))
	}
	if bufs[0].At(0, 0) != 1 || bufs[2].At(0, 0) != 3 {
		t.Fatalf("non-root buffers modified")
	}
}

func TestCollectiveDependencyWiring(t *testing.T) {
	c := newGroup(2)
	k := c.Graph.AddCompute(0, sim.KindGeMM, "k", -1, 1.0, false)
	src := tensor.NewDense(1, 1)
	dst := []*tensor.Dense{tensor.NewDense(1, 1), tensor.NewDense(1, 1)}
	id := c.Broadcast(0, src, dst, "b", 0, k)
	sched := c.Graph.Run()
	if sched.Start[id] < sched.End[k] {
		t.Fatalf("broadcast started before its dependency finished")
	}
}

func TestBufferCountMismatchPanics(t *testing.T) {
	c := newGroup(3)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	c.AllReduceSum([]*tensor.Dense{tensor.NewDense(1, 1)}, "ar")
}

func TestSubGroupCollectives(t *testing.T) {
	c := newGroup(8)
	sub := c.Sub([]int{2, 5})
	if sub.P() != 2 {
		t.Fatalf("sub group size = %d, want 2", sub.P())
	}

	src := tensor.NewDense(4, 4)
	fillRand(src, 7)
	dst := []*tensor.Dense{tensor.NewDense(4, 4), tensor.NewDense(4, 4)}
	id := sub.Broadcast(0, src, dst, "sub-bcast", 0)
	c.Graph.Execute(2)

	task := c.Graph.Tasks[id]
	if len(task.Devices) != 2 || task.Devices[0] != 2 || task.Devices[1] != 5 {
		t.Fatalf("sub broadcast spans devices %v, want [2 5]", task.Devices)
	}
	// §5.1: the subset's link topology prices the collective — a 2-member
	// group, not the full 8-GPU machine.
	want := c.Graph.Spec.BroadcastCost(src.Bytes(), 2)
	if task.Seconds != want {
		t.Fatalf("sub broadcast cost = %g, want groupSize-2 cost %g", task.Seconds, want)
	}
	if full := c.Graph.Spec.BroadcastCost(src.Bytes(), 8); task.Seconds == full {
		t.Fatalf("sub broadcast priced as the full 8-GPU group")
	}
	if !tensor.Equal(dst[1], src, 0) {
		t.Fatalf("sub broadcast did not copy to member 1")
	}

	// All-reduce over the pair: data sums within the subset only.
	a, b := tensor.NewDense(2, 2), tensor.NewDense(2, 2)
	a.Fill(1)
	b.Fill(2)
	arID := sub.AllReduceSum([]*tensor.Dense{a, b}, "sub-ar")
	c.Graph.Execute(2)
	if a.At(0, 0) != 3 || b.At(0, 0) != 3 {
		t.Fatalf("sub allreduce values = %g, %g, want 3", a.At(0, 0), b.At(0, 0))
	}
	arTask := c.Graph.Tasks[arID]
	if wantAR := c.Graph.Spec.AllReduceCost(a.Bytes(), 2); arTask.Seconds != wantAR {
		t.Fatalf("sub allreduce cost = %g, want %g", arTask.Seconds, wantAR)
	}
}

func TestSubInheritsBytesScale(t *testing.T) {
	c := newGroup(4)
	c.BytesScale = 16
	sub := c.Sub([]int{0, 1})
	src := tensor.NewDense(4, 4)
	dst := []*tensor.Dense{tensor.NewDense(4, 4), tensor.NewDense(4, 4)}
	id := sub.Broadcast(0, src, dst, "scaled", 0)
	want := c.Graph.Spec.BroadcastCost(src.Bytes()*16, 2)
	if got := c.Graph.Tasks[id].Seconds; got != want {
		t.Fatalf("scaled sub broadcast cost = %g, want %g", got, want)
	}
}

// Phantom-mode collectives must not touch data (there is none) but must
// emit comm tasks priced and declared exactly as their real-data
// counterparts, so a phantom run predicts the same epoch time as a
// materialized one.
func TestSubRemovesMember(t *testing.T) {
	c := newGroup(4)

	// Device 1 died: the survivor group drops it.
	survivors := c.Sub([]int{0, 2, 3})
	if survivors.P() != 3 {
		t.Fatalf("survivor group size = %d, want 3", survivors.P())
	}

	// Collectives on the shrunken group span exactly the survivors.
	src := tensor.NewDense(2, 2)
	src.Fill(9)
	dst := []*tensor.Dense{src, tensor.NewDense(2, 2), tensor.NewDense(2, 2)}
	id := survivors.Broadcast(0, src, dst, "resync", 0)
	task := c.Graph.Tasks[id]
	if len(task.Devices) != 3 || task.Devices[0] != 0 || task.Devices[1] != 2 || task.Devices[2] != 3 {
		t.Fatalf("survivor broadcast spans %v, want [0 2 3]", task.Devices)
	}
	for _, d := range task.Devices {
		if d == 1 {
			t.Fatal("removed member still in the collective's device span")
		}
	}
	if err := c.Graph.Execute(2); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if dst[1].At(0, 0) != 9 || dst[2].At(0, 0) != 9 {
		t.Fatalf("survivor broadcast values %g, %g, want 9", dst[1].At(0, 0), dst[2].At(0, 0))
	}
	// Pricing uses the 3-member topology, not the original 4.
	if want := c.Graph.Spec.BroadcastCost(src.Bytes(), 3); task.Seconds != want {
		t.Fatalf("survivor broadcast cost = %g, want 3-member cost %g", task.Seconds, want)
	}
}

func TestSubOfSubRemovesAnotherMember(t *testing.T) {
	c := newGroup(8)
	first := c.Sub([]int{0, 1, 2, 3})
	second := first.Sub([]int{0, 2, 3}) // member 1 of the *machine* removed
	if second.P() != 3 {
		t.Fatalf("second shrink size = %d, want 3", second.P())
	}
	a, b, d := tensor.NewDense(2, 2), tensor.NewDense(2, 2), tensor.NewDense(2, 2)
	a.Fill(1)
	b.Fill(2)
	d.Fill(4)
	id := second.AllReduceSum([]*tensor.Dense{a, b, d}, "ar2")
	if err := c.Graph.Execute(1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if a.At(0, 0) != 7 || b.At(0, 0) != 7 || d.At(0, 0) != 7 {
		t.Fatalf("double-shrunk allreduce = %g/%g/%g, want 7", a.At(0, 0), b.At(0, 0), d.At(0, 0))
	}
	if devs := c.Graph.Tasks[id].Devices; len(devs) != 3 || devs[0] != 0 || devs[1] != 2 || devs[2] != 3 {
		t.Fatalf("double-shrunk allreduce spans %v, want [0 2 3]", devs)
	}
}

func TestPhantomCollectivesPricedLikeReal(t *testing.T) {
	const p = 4
	real := newGroup(p)
	phantom := newGroup(p)

	realBufs := make([]*tensor.Dense, p)
	phantomBufs := make([]*tensor.Dense, p)
	for i := 0; i < p; i++ {
		realBufs[i] = tensor.NewDense(8, 8)
		phantomBufs[i] = tensor.NewPhantom(8, 8)
	}

	rID := real.AllReduceSum(realBufs, "ar")
	pID := phantom.AllReduceSum(phantomBufs, "ar")
	if got, want := phantom.Graph.Tasks[pID].Seconds, real.Graph.Tasks[rID].Seconds; got != want {
		t.Fatalf("phantom allreduce cost = %g, real = %g", got, want)
	}

	rID = real.ReduceSum(0, realBufs, "red")
	pID = phantom.ReduceSum(0, phantomBufs, "red")
	if got, want := phantom.Graph.Tasks[pID].Seconds, real.Graph.Tasks[rID].Seconds; got != want {
		t.Fatalf("phantom reduce cost = %g, real = %g", got, want)
	}

	rID = real.Broadcast(1, realBufs[1], realBufs, "bc", 0)
	pID = phantom.Broadcast(1, phantomBufs[1], phantomBufs, "bc", 0)
	if got, want := phantom.Graph.Tasks[pID].Seconds, real.Graph.Tasks[rID].Seconds; got != want {
		t.Fatalf("phantom broadcast cost = %g, real = %g", got, want)
	}

	if err := phantom.Graph.Execute(1); err != nil {
		t.Fatal(err)
	}
	for i, b := range phantomBufs {
		if !b.IsPhantom() || b.Data != nil {
			t.Fatalf("phantom buffer %d materialized data", i)
		}
	}
	if got, want := len(phantom.Graph.Tasks), len(real.Graph.Tasks); got != want {
		t.Fatalf("phantom run emitted %d tasks, real %d", got, want)
	}
	bound := func(g *sim.Graph) (n int) {
		for _, task := range g.Tasks {
			if task.Exec != nil {
				n++
			}
		}
		return n
	}
	if got, want := bound(phantom.Graph), bound(real.Graph); got != want {
		t.Fatalf("phantom run bound %d tasks, real %d", got, want)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

// Regression: a nested Sub used to accept any device list, so Sub-of-Sub
// could silently re-admit a rank the outer Sub removed — exactly the elastic
// shrink path, where a "resurrected" rank would hang the real collective.
func TestSubOfSubRejectsRemovedRank(t *testing.T) {
	c := newGroup(4)
	survivors := c.Sub([]int{0, 1, 2}) // rank 3 lost
	mustPanic(t, "not a member", func() {
		survivors.Sub([]int{1, 3})
	})
}

func TestSubValidation(t *testing.T) {
	c := newGroup(4)
	mustPanic(t, "empty", func() { c.Sub(nil) })
	mustPanic(t, "not a member", func() { c.Sub([]int{0, 4}) })
	mustPanic(t, "twice", func() { c.Sub([]int{1, 2, 1}) })
	// Legal nesting still works, including reordering.
	pair := c.Sub([]int{3, 1, 0}).Sub([]int{1, 3})
	if got := pair.members(); got[0] != 1 || got[1] != 3 {
		t.Fatalf("nested sub members = %v, want [1 3]", got)
	}
}

// Every collective must carry a sim.Collective annotation whose Words()
// equals the independently-computed meter count — the invariant schedcheck's
// golden certification test relies on.
func TestCollectivesAnnotatedAndMetered(t *testing.T) {
	c := newGroup(3)
	c.BytesScale = 5
	c.Meter = NewMeter()
	bufs := make([]*tensor.Dense, 3)
	for i := range bufs {
		bufs[i] = tensor.NewDense(4, 2)
	}

	bID := c.Broadcast(1, bufs[1], bufs, "bc", 0)
	rID := c.ReduceSum(0, bufs, "red")
	aID := c.AllReduceSum(bufs, "ar")         // unscaled: weight grads
	sID := c.AllReduceSumScaled(bufs, "ar-s") // scaled: feature payloads

	want := map[int]struct {
		op    sim.CollOp
		root  int
		words int64
	}{
		bID: {sim.CollBroadcast, 1, 2 * 4 * 2 * 5},
		rID: {sim.CollReduce, 0, 2 * 4 * 2 * 5},
		aID: {sim.CollAllReduce, -1, 2 * 2 * 4 * 2},
		sID: {sim.CollAllReduce, -1, 2 * 2 * 4 * 2 * 5},
	}
	perOp := map[sim.CollOp]int64{}
	for id, w := range want {
		coll := c.Graph.Tasks[id].Coll
		if coll == nil {
			t.Fatalf("task %d has no collective annotation", id)
		}
		if coll.Op != w.op || coll.Root != w.root {
			t.Fatalf("task %d annotated %v root %d, want %v root %d", id, coll.Op, coll.Root, w.op, w.root)
		}
		if len(coll.Group) != 3 {
			t.Fatalf("task %d group %v, want all 3 devices", id, coll.Group)
		}
		if got := coll.Words(); got != w.words {
			t.Fatalf("task %d Words() = %d, want %d", id, got, w.words)
		}
		perOp[w.op] += w.words
	}
	for op, w := range perOp {
		if got := c.Meter.Words(op); got != w {
			t.Fatalf("meter %v = %d, want %d", op, got, w)
		}
	}
	c.Meter.Reset()
	for op := range perOp {
		if c.Meter.Words(op) != 0 {
			t.Fatalf("meter %v not cleared by Reset", op)
		}
	}

	// Shaped declarations: the broadcast reads the root view and writes the
	// other members at the same extent... but these views are unregistered
	// (Buf == 0) here, so the shape sets stay empty. Register one and check.
	reg := sim.NewBufRegistry()
	c.Graph.Reg = reg
	for i, b := range bufs {
		b.Buf = int(reg.Register(fmt.Sprintf("b%d", i)))
	}
	c.Meter = nil // nil-safe metering
	id := c.Broadcast(0, bufs[0], bufs, "bc2", 0)
	task := c.Graph.Tasks[id]
	if len(task.InShapes) != 1 || len(task.OutShapes) != 2 {
		t.Fatalf("broadcast shapes in=%d out=%d, want 1/2", len(task.InShapes), len(task.OutShapes))
	}
	for _, s := range append(task.InShapes, task.OutShapes...) {
		if s.Rows != 4 || s.Cols != 2 {
			t.Fatalf("shape %+v, want 4x2", s)
		}
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.Add(sim.CollBroadcast, 10)
	if m.Words(sim.CollBroadcast) != 0 {
		t.Fatalf("nil meter returned nonzero")
	}
	m.Reset()
}

// flakyCollectives fails the first failures attempts of every collective.
type flakyCollectives struct{ failures int }

func (f flakyCollectives) BeforeTask(g *sim.Graph, t *sim.Task, attempt int) error {
	if t.Coll == nil || attempt > f.failures {
		return nil
	}
	return sim.Transient(fmt.Errorf("flaky %s, attempt %d", t.Label, attempt))
}

func (flakyCollectives) AfterTask(*sim.Graph, *sim.Task) error { return nil }

// TestAllReduceRetriesPreserveBitIdentity: the all-reduce's accumulation is
// not idempotent, so the executor's retried attempts must never start it —
// the retried result is the fault-free one bit for bit.
func TestAllReduceRetriesPreserveBitIdentity(t *testing.T) {
	run := func(hook sim.FaultHook) []float32 {
		c := newGroup(4)
		c.Graph.Fault = hook
		bufs := make([]*tensor.Dense, 4)
		for i := range bufs {
			bufs[i] = tensor.NewDense(3, 3)
			fillRand(bufs[i], int64(i+1))
		}
		c.AllReduceSum(bufs, "ar")
		if err := c.Graph.Execute(2); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		return bufs[2].Data
	}
	clean := run(nil)
	retried := run(flakyCollectives{failures: 2})
	for i := range clean {
		if clean[i] != retried[i] {
			t.Fatalf("retried allreduce diverged at %d: %g vs %g", i, retried[i], clean[i])
		}
	}
}
