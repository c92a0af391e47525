package sim

import (
	"errors"
	"fmt"
	"testing"
)

func TestExecuteBindEErrorPropagates(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	a := g.AddCompute(0, KindGeMM, "ok", -1, 1, false)
	bindNop(g, a)
	b := g.AddCompute(1, KindGeMM, "boom", 2, 1, false, a)
	g.BindShapedE(b, nil, nil, func() error { return fmt.Errorf("kernel fault") })
	err := g.Execute(1)
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("Execute = %v, want *TaskError", err)
	}
	if te.ID != b || te.Label != "boom" || te.Device != 1 {
		t.Fatalf("TaskError = %+v, want id %d label boom device 1", te, b)
	}
}

func TestExecuteErrorCancelsSuccessors(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	a := g.AddCompute(0, KindGeMM, "fail", -1, 1, false)
	g.BindShapedE(a, nil, nil, func() error { return fmt.Errorf("down") })
	ran := false
	b := g.AddCompute(0, KindGeMM, "after", -1, 1, false, a)
	g.BindShaped(b, nil, nil, func() { ran = true })
	if err := g.Execute(4); err == nil {
		t.Fatal("Execute succeeded despite failing task")
	}
	if ran {
		t.Fatal("successor of failed task ran")
	}
}

func TestExecuteDrainsInFlightOnError(t *testing.T) {
	// Two independent tasks on different devices: one fails, the other must
	// still complete (it may already be in flight) before Execute returns.
	for trial := 0; trial < 10; trial++ {
		g := NewGraph(DGXV100(), 2)
		a := g.AddCompute(0, KindGeMM, "fail", -1, 1, false)
		g.BindShapedE(a, nil, nil, func() error { return fmt.Errorf("down") })
		done := make(chan struct{}, 1)
		b := g.AddCompute(1, KindGeMM, "peer", -1, 1, false)
		g.BindShaped(b, nil, nil, func() { done <- struct{}{} })
		if err := g.Execute(2); err == nil {
			t.Fatal("Execute succeeded despite failing task")
		}
		// If b was issued it finished before Execute returned; either way
		// nothing is running now, so a non-blocking receive is race-free.
		select {
		case <-done:
		default:
		}
	}
}

// recordingHook counts hook invocations and optionally fails a labelled task.
type recordingHook struct {
	failLabel string
	before    int
	after     int
}

func (h *recordingHook) BeforeTask(g *Graph, tk *Task, attempt int) error {
	h.before++
	if tk.Label == h.failLabel {
		return &DeviceLostError{Device: tk.Devices[0]}
	}
	return nil
}

func (h *recordingHook) AfterTask(g *Graph, tk *Task) error {
	h.after++
	return nil
}

func TestFaultHookBeforeTaskSkipsClosure(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	hook := &recordingHook{failLabel: "victim"}
	g.Fault = hook
	ran := false
	a := g.AddCompute(1, KindSpMM, "victim", 0, 1, true)
	g.BindShaped(a, nil, nil, func() { ran = true })
	err := g.Execute(1)
	if ran {
		t.Fatal("closure ran despite BeforeTask failure")
	}
	var lost *DeviceLostError
	if !errors.As(err, &lost) || lost.Device != 1 {
		t.Fatalf("Execute = %v, want DeviceLostError{1}", err)
	}
	if hook.after != 0 {
		t.Fatalf("AfterTask ran %d times for a task whose BeforeTask failed", hook.after)
	}
}

func TestFaultHookBracketsOnlyBoundTasks(t *testing.T) {
	g := NewGraph(DGXV100(), 2)
	hook := &recordingHook{}
	g.Fault = hook
	a := g.AddCompute(0, KindGeMM, "bound", -1, 1, false)
	bindNop(g, a)
	g.AddCompute(1, KindGeMM, "unbound", -1, 1, false) // timing-only task
	if err := g.Execute(2); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if hook.before != 1 || hook.after != 1 {
		t.Fatalf("hook saw before=%d after=%d, want 1/1 (bound tasks only)", hook.before, hook.after)
	}
}

func TestExecuteIsResumableAfterSuccessOnly(t *testing.T) {
	// Incremental replay still works across successful Execute calls with a
	// hook installed.
	g := NewGraph(DGXV100(), 1)
	hook := &recordingHook{}
	g.Fault = hook
	n := 0
	a := g.AddCompute(0, KindGeMM, "first", -1, 1, false)
	g.BindShaped(a, nil, nil, func() { n++ })
	if err := g.Execute(1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	b := g.AddCompute(0, KindGeMM, "second", -1, 1, false, a)
	g.BindShaped(b, nil, nil, func() { n++ })
	if err := g.Execute(1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if n != 2 || hook.before != 2 {
		t.Fatalf("ran %d tasks, hook before=%d; want 2/2", n, hook.before)
	}
}
