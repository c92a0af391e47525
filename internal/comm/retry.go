package comm

import (
	"errors"
	"fmt"
	"time"
)

// This file is the collectives' transient-failure machinery. At scale,
// individual collectives fail for reasons that have nothing to do with the
// algorithm — a flaky link, a timed-out handshake — and the right response
// is to retry the attempt, not to kill the epoch. Every collective closure
// therefore runs as a bounded retry loop: each attempt first consults the
// group's CollectiveGate (the fault injector's hook), then moves the data.
// Failures marked transient back off exponentially and retry; anything
// else — including exhausting the attempt budget — propagates to the
// executor and cancels the epoch.
//
// Two invariants keep retried runs bit-identical to fault-free runs:
//
//   - the gate is consulted *before* any data moves, so a failed attempt
//     leaves every buffer untouched and the eventual successful attempt
//     performs exactly the movement a fault-free run would have;
//   - backoff comes from an injectable Clock, so tests (and the chaos
//     harness) substitute a fake and assert the schedule without wall time.

// Clock abstracts the retry loop's sleeps so tests can fake time.
type Clock interface {
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// TransientError marks a collective failure as retryable. The retry loop
// retries only errors wrapped by Transient (directly or via %w chains);
// everything else is permanent and propagates immediately.
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

// GiveUpError reports a collective that exhausted its retry budget: every
// one of Attempts tries failed transiently. It is permanent by construction
// (IsTransient is false on it — the retry loop must not recurse), and the
// elastic trainer treats it like any other fatal epoch error.
type GiveUpError struct {
	Label    string
	Attempts int
	Err      error // last transient failure
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("comm: %s failed %d attempts, giving up: %v", e.Label, e.Attempts, e.Err)
}

func (e *GiveUpError) Unwrap() error { return e.Err }

// RetryPolicy bounds the retry loop: at most MaxAttempts tries, with
// exponential backoff BaseDelay·Multiplier^(n-1) capped at MaxDelay between
// consecutive tries. The zero value means "no retries" (one attempt, no
// sleeping) — groups without a policy behave exactly as before.
type RetryPolicy struct {
	MaxAttempts int           // total attempts; <= 1 disables retrying
	BaseDelay   time.Duration // backoff after the first failed attempt
	MaxDelay    time.Duration // backoff cap (0: uncapped)
	Multiplier  float64       // per-failure growth factor (<= 0: 2)
}

// Backoff returns the delay to sleep after the n-th failed attempt
// (1-based): BaseDelay·Multiplier^(n-1), capped at MaxDelay.
func (p RetryPolicy) Backoff(n int) time.Duration {
	if n < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// CollectiveGate is consulted at the start of every collective attempt,
// before any data moves — the seam the fault injector uses to fail
// collectives transiently. taskID is the collective's task in the graph
// (stable at record time, so decisions stay deterministic however the
// executor interleaves the replay), attempt is 1-based.
type CollectiveGate interface {
	CollectiveAttempt(taskID int, label string, attempt int) error
}

// retry runs one collective as a bounded attempt loop: gate, then move.
// move runs only after the gate passes and must itself be infallible (the
// data movement is plain memory traffic); a transient gate failure backs
// off and retries, a permanent one propagates, and exhausting MaxAttempts
// converts the last transient failure into a permanent *GiveUpError.
func (c *Group) retry(taskID int, label string, move func()) error {
	max := c.Retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	clock := c.Clock
	if clock == nil {
		clock = realClock{}
	}
	for attempt := 1; ; attempt++ {
		var err error
		if c.Gate != nil {
			err = c.Gate.CollectiveAttempt(taskID, label, attempt)
		}
		if err == nil {
			move()
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		if attempt >= max {
			return &GiveUpError{Label: label, Attempts: attempt, Err: err}
		}
		clock.Sleep(c.Retry.Backoff(attempt))
	}
}
