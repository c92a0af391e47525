package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptedHook fails the first failures attempts of every bound task. When
// permanent is set the failures are not marked transient.
type scriptedHook struct {
	failures  int
	permanent bool
	mu        sync.Mutex
	attempts  map[int][]int // per task ID, every attempt number seen in order
	after     int
}

func (s *scriptedHook) BeforeTask(g *Graph, t *Task, attempt int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = map[int][]int{}
	}
	s.attempts[t.ID] = append(s.attempts[t.ID], attempt)
	if attempt > s.failures {
		return nil
	}
	err := fmt.Errorf("scripted failure %d of %s", attempt, t.Label)
	if s.permanent {
		return err
	}
	return Transient(err)
}

func (s *scriptedHook) AfterTask(*Graph, *Task) error {
	s.mu.Lock()
	s.after++
	s.mu.Unlock()
	return nil
}

// recordSleeps replaces the backoff's wait with a recorder for one test.
func recordSleeps(t *testing.T) *[]time.Duration {
	var mu sync.Mutex
	slept := new([]time.Duration)
	sleep = func(d time.Duration) {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
	}
	t.Cleanup(func() { sleep = time.Sleep })
	return slept
}

func TestBackoffSchedule(t *testing.T) {
	t.Run("doubling", func(t *testing.T) {
		// Doubling from the base, one delay between each pair of attempts.
		want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 40 * time.Microsecond}
		if len(want) != retryAttempts-1 {
			t.Fatalf("%d attempts need %d delays, the schedule lists %d", retryAttempts, retryAttempts-1, len(want))
		}
		for n, w := range want {
			if got := backoff(n + 1); got != w {
				t.Fatalf("backoff(%d) = %v, want %v", n+1, got, w)
			}
		}
	})
}

func TestRetryLoop(t *testing.T) {
	cases := []struct {
		name         string
		failures     int
		permanent    bool
		wantAttempts []int
		wantSleeps   []time.Duration
		wantGiveUp   bool
		wantErr      bool
	}{
		{
			name:         "first attempt passes",
			wantAttempts: []int{1},
		},
		{
			name:         "two transient failures retried",
			failures:     2,
			wantAttempts: []int{1, 2, 3},
			wantSleeps:   []time.Duration{10 * time.Microsecond, 20 * time.Microsecond},
		},
		{
			name:         "budget exhausted gives up",
			failures:     5,
			wantAttempts: []int{1, 2, 3, 4},
			wantSleeps:   []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 40 * time.Microsecond},
			wantGiveUp:   true,
			wantErr:      true,
		},
		{
			name:         "permanent failure is not retried",
			failures:     1,
			permanent:    true,
			wantAttempts: []int{1},
			wantErr:      true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slept := recordSleeps(t)
			hook := &scriptedHook{failures: tc.failures, permanent: tc.permanent}
			g := NewGraph(DGXV100(), 2)
			g.Fault = hook
			var moved float32
			id := g.AddComm([]int{0, 1}, "bcast", 0, 1)
			g.BindShaped(id, nil, nil, func() { moved = 5 })
			err := g.Execute(1)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Execute error = %v, wantErr %v", err, tc.wantErr)
			}
			var give *GiveUpError
			if gotGiveUp := errors.As(err, &give); gotGiveUp != tc.wantGiveUp {
				t.Fatalf("GiveUpError = %v, want %v (err %v)", gotGiveUp, tc.wantGiveUp, err)
			}
			if tc.wantGiveUp && (give.Attempts != retryAttempts || give.Label != "bcast") {
				t.Fatalf("GiveUpError = %+v, want bcast after %d attempts", give, retryAttempts)
			}
			if got := hook.attempts[id]; fmt.Sprint(got) != fmt.Sprint(tc.wantAttempts) {
				t.Fatalf("attempts %v, want %v", got, tc.wantAttempts)
			}
			if fmt.Sprint(*slept) != fmt.Sprint(tc.wantSleeps) {
				t.Fatalf("sleeps %v, want %v", *slept, tc.wantSleeps)
			}
			// Gate before movement: no data arrives unless an attempt passed.
			if err != nil && moved != 0 {
				t.Fatalf("failed task moved data (%g)", moved)
			}
			if err == nil && moved != 5 {
				t.Fatalf("successful task moved %g, want 5", moved)
			}
		})
	}
}

func TestGiveUpErrorIsPermanent(t *testing.T) {
	inner := Transient(fmt.Errorf("flaky"))
	give := &GiveUpError{Label: "bcast", Attempts: 4, Err: inner}
	// GiveUpError wraps the last transient failure, so IsTransient (which
	// unwraps) sees it; the loop never retries one because it returns the
	// give-up it constructs, and the elastic trainer looks for *GiveUpError
	// before anything that dispatches on transience.
	var g *GiveUpError
	if !errors.As(give, &g) {
		t.Fatal("GiveUpError not findable via errors.As")
	}
	if !errors.Is(give, inner) {
		t.Fatal("GiveUpError does not wrap its last failure")
	}
}

// TestRetriedClosureRunsOnce: over independent tasks, a counting closure
// runs exactly once after two transient failures and never on give-up, at
// one and two workers and under adversarial orders.
func TestRetriedClosureRunsOnce(t *testing.T) {
	replays := map[string]func(*Graph) error{
		"workers 1":   func(g *Graph) error { return g.Execute(1) },
		"workers 2":   func(g *Graph) error { return g.Execute(2) },
		"adversarial": func(g *Graph) error { return g.ExecuteAdversarial(2, 5) },
	}
	for name, replay := range replays {
		for _, failures := range []int{2, retryAttempts} {
			t.Run(fmt.Sprintf("%s/failures %d", name, failures), func(t *testing.T) {
				recordSleeps(t)
				g := NewGraph(DGXV100(), 2)
				g.Fault = &scriptedHook{failures: failures}
				var mu sync.Mutex
				runs := map[int]int{}
				for i := 0; i < 6; i++ {
					id := g.AddCompute(i%2, KindGeMM, fmt.Sprintf("t%d", i), -1, 1, false)
					g.BindShaped(id, nil, nil, func() {
						mu.Lock()
						runs[id]++
						mu.Unlock()
					})
				}
				err := replay(g)
				var give *GiveUpError
				if failures < retryAttempts {
					if err != nil {
						t.Fatalf("replay: %v", err)
					}
					for id := range g.Tasks {
						if runs[id] != 1 {
							t.Fatalf("task %d ran %d times, want once", id, runs[id])
						}
					}
					return
				}
				if !errors.As(err, &give) {
					t.Fatalf("replay = %v, want a *GiveUpError", err)
				}
				if len(runs) != 0 {
					t.Fatalf("closures ran %v after every task gave up", runs)
				}
			})
		}
	}
}

func TestWalkHooksRunsNoClosure(t *testing.T) {
	build := func(hook FaultHook) (*Graph, int) {
		g := NewGraph(DGXV100(), 2)
		g.Fault = hook
		a := g.AddCompute(0, KindGeMM, "a", -1, 1, false)
		g.BindShaped(a, nil, nil, func() { t.Fatal("the walk ran a closure") })
		g.AddCompute(1, KindGeMM, "timing only", -1, 1, false)
		b := g.AddComm([]int{0, 1}, "bcast", 0, 1, a)
		g.BindShaped(b, nil, nil, func() { t.Fatal("the walk ran a closure") })
		return g, b
	}
	recordSleeps(t)

	// No hook: nothing to decide.
	if g, _ := build(nil); g.WalkHooks() != nil {
		t.Fatal("a walk with no hook failed")
	}
	// Retried failures pass, and the hook meets each bound task.
	hook := &scriptedHook{failures: 2}
	g, _ := build(hook)
	if err := g.WalkHooks(); err != nil {
		t.Fatalf("WalkHooks: %v", err)
	}
	if len(hook.attempts) != 2 || hook.after != 2 {
		t.Fatalf("hook met %d tasks, after %d; want the 2 bound ones", len(hook.attempts), hook.after)
	}
	// Exhaustion gives up on the first bound task in issue order.
	g, _ = build(&scriptedHook{failures: retryAttempts})
	var te *TaskError
	var give *GiveUpError
	if err := g.WalkHooks(); !errors.As(err, &te) || te.ID != 0 || !errors.As(err, &give) {
		t.Fatalf("WalkHooks = %v, want task 0's *GiveUpError in a *TaskError", err)
	}
	// A permanent failure is returned as it is, on its task.
	lost := &recordingHook{failLabel: "bcast"}
	g, b := build(lost)
	var dl *DeviceLostError
	if err := g.WalkHooks(); !errors.As(err, &te) || te.ID != b || !errors.As(err, &dl) {
		t.Fatalf("WalkHooks = %v, want bcast's *DeviceLostError", err)
	}
}
