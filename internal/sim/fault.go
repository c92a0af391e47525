package sim

import "fmt"

// This file is the executor's failure contract. The replay in exec.go is
// fallible on purpose: task closures return errors (Graph.BindShapedE), a
// FaultHook can fail or delay any bound task, and Execute surfaces the
// first failure as a *TaskError after draining whatever was already in
// flight. The taxonomy the recovery machinery (internal/comm retries,
// internal/core elastic training) dispatches on:
//
//   - transient failures are retried *inside* a task's closure (the comm
//     retry loop) and never reach Execute unless retries are exhausted;
//   - *DeviceLostError is permanent: the device is gone for good, and the
//     epoch cannot complete at the current group size — the trainer's
//     elastic path shrinks the collective group and repartitions;
//   - anything else aborts the replay and propagates unchanged.

// FaultHook brackets every bound task closure the executor replays — the
// seam internal/fault's deterministic injector plugs into. Both callbacks
// run on the task's worker, possibly concurrently for independent tasks, so
// implementations must be safe for concurrent use.
type FaultHook interface {
	// BeforeTask runs just before the task's closure. It may sleep to
	// model a straggler, or return an error to fail the task without
	// running its closure (a crashed device never executes the kernel).
	BeforeTask(g *Graph, t *Task) error
	// AfterTask runs after the closure returned nil. It may corrupt the
	// task's declared output buffers (via g.Reg) to model silent data
	// corruption, or return an error to fail the task post-hoc.
	AfterTask(g *Graph, t *Task) error
}

// TaskError is Execute's failure report: the first task whose closure (or
// fault hook) failed. Later tasks were cancelled; concurrently in-flight
// tasks were drained before Execute returned. The graph's replay watermark
// has already passed the cancelled tasks — a failed graph is not resumable,
// recovery records a fresh one.
type TaskError struct {
	ID     int
	Label  string
	Device int // first device of the task (-1 if the task spans none)
	Err    error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("sim: task %d %q (device %d) failed: %v", e.ID, e.Label, e.Device, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// DeviceLostError reports a permanent device failure: the device crashed
// mid-epoch and will not come back. Execute wraps it in a *TaskError; the
// elastic trainer unwraps it (errors.As) to decide to shrink the group and
// repartition over the survivors instead of aborting the run.
type DeviceLostError struct {
	Device int
}

func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("sim: device %d lost (permanent failure)", e.Device)
}

// TransientTaskError reports a transient failure of an individual task —
// the task-level counterpart of comm's transient collective failures, used
// for stages with no in-closure retry loop (e.g. a sampler stage whose host
// thread hiccuped). The device survives and the work is recoverable: because
// sampled batches are pure functions of (seed, epoch, batch), the elastic
// trainer re-derives and replays the lost work bit-identically instead of
// aborting. Execute wraps it in a *TaskError; errors.As sees through.
type TransientTaskError struct {
	Device int
	Label  string
}

func (e *TransientTaskError) Error() string {
	return fmt.Sprintf("sim: task %q (device %d) failed transiently", e.Label, e.Device)
}
