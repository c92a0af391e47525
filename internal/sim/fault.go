package sim

import (
	"errors"
	"fmt"
	"time"
)

// This file is the executor's failure contract. The replay in exec.go is
// fallible on purpose: task closures return errors (Graph.BindShapedE), a
// FaultHook can fail or delay any bound task, and Execute surfaces the
// first failure as a *TaskError after draining whatever was already in
// flight. The taxonomy the recovery machinery (this file's retry loop,
// internal/core elastic training) dispatches on:
//
//   - a hook failure wrapped by Transient — a flaky collective or any other
//     flaky task — is retried in place: the worker backs off and offers the
//     task to the hook again, up to retryAttempts tries, before the closure
//     runs — so a non-idempotent all-reduce or reduce is never half-applied,
//     and a retried run is bit-identical to a fault-free one. Exhausting the
//     budget is a permanent *GiveUpError, which the trainer's elastic path
//     answers by evicting a suspect device;
//   - *DeviceLostError is permanent: the device is gone for good, and the
//     epoch cannot complete at the current group size — the trainer's
//     elastic path shrinks the collective group and repartitions;
//   - anything else aborts the replay and propagates unchanged.
//
// The loop decides on the hook alone, never on a closure, so WalkHooks
// runs it on a structure-only graph exactly as Execute does on a real one.

// The retry policy: retryAttempts tries, backing off retryBase, 2·retryBase,
// 4·retryBase, ... between consecutive ones.
const (
	retryAttempts = 4
	retryBase     = 10 * time.Microsecond
)

// backoff is the delay after the n-th failed attempt (1-based).
func backoff(n int) time.Duration { return retryBase << (n - 1) }

// sleep is the backoff's wait; tests record it instead.
var sleep = time.Sleep

// FaultHook brackets every bound task closure the executor replays — the
// seam internal/fault's deterministic injector plugs into. Both callbacks
// run on the task's worker, possibly concurrently for independent tasks, so
// implementations must be safe for concurrent use.
type FaultHook interface {
	// BeforeTask runs before the task's closure, once per attempt
	// (1-based). It may sleep to model a straggler, return a Transient
	// error to have the attempt retried, or return any other error to fail
	// the task without running its closure (a crashed device never
	// executes the kernel).
	BeforeTask(g *Graph, t *Task, attempt int) error
	// AfterTask runs after the closure returned nil. It may corrupt the
	// task's declared output buffers (via g.Reg) to model silent data
	// corruption, or return an error to fail the task post-hoc.
	AfterTask(g *Graph, t *Task) error
}

// beforeTask offers t to the hook under the retry budget: a transient
// failure backs off and tries again, anything else returns as it is, and
// the last of retryAttempts transient failures becomes a *GiveUpError.
func beforeTask(g *Graph, hook FaultHook, t *Task) error {
	for n := 1; ; n++ {
		err := hook.BeforeTask(g, t, n)
		if err == nil || !IsTransient(err) {
			return err
		}
		if n == retryAttempts {
			return &GiveUpError{Label: t.Label, Attempts: n, Err: err}
		}
		sleep(backoff(n))
	}
}

// WalkHooks is Execute for a structure-only graph: it offers every bound
// task, in issue order, to the fault hook — the same attempt loop, then
// AfterTask — without running a closure, and returns the first failure as
// a *TaskError. A hook that needs data the graph does not hold (a poison of
// buffers with no storage) must fail the task rather than skip it. With no
// hook set it does nothing.
func (g *Graph) WalkHooks() error {
	hook := g.Fault
	if hook == nil {
		return nil
	}
	for _, t := range g.Tasks {
		if t.Exec == nil {
			continue
		}
		err := beforeTask(g, hook, t)
		if err == nil {
			err = hook.AfterTask(g, t)
		}
		if err != nil {
			return taskError(t, err)
		}
	}
	return nil
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

func taskError(t *Task, err error) *TaskError {
	dev := -1
	if len(t.Devices) > 0 {
		dev = t.Devices[0]
	}
	return &TaskError{ID: t.ID, Label: t.Label, Device: dev, Err: err}
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("sim: task %d %q (device %d) failed: %v", e.ID, e.Label, e.Device, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// TransientError marks a hook failure as retryable. The retry loop retries
// only errors wrapped by Transient (directly or via %w chains); everything
// else is permanent and propagates immediately.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is (or wraps) a TransientError.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// GiveUpError reports a task that exhausted the retry budget: every one of
// Attempts tries failed transiently. It is permanent by construction (the
// loop returns it, never retries it), and the elastic trainer dispatches on
// it before anything that looks for transience.
type GiveUpError struct {
	Label    string
	Attempts int
	Err      error // last transient failure
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("sim: %s failed %d attempts, giving up: %v", e.Label, e.Attempts, e.Err)
}

func (e *GiveUpError) Unwrap() error { return e.Err }

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
