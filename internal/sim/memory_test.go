package sim

import (
	"errors"
	"sync"
	"testing"
)

func TestPoolOOMError(t *testing.T) {
	p := NewPool("gpu1", 10)
	err := p.Alloc("big", 11)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *OOMError, got %T", err)
	}
	if oom.Requested != 11 || oom.Capacity != 10 || oom.Pool != "gpu1" || oom.Label != "big" {
		t.Fatalf("OOM fields wrong: %+v", oom)
	}
	if oom.Error() == "" {
		t.Fatalf("empty error string")
	}
}

func TestPoolRefusedAllocReservesNothing(t *testing.T) {
	p := NewPool("g", 100)
	for _, b := range []int64{40, 30} {
		if err := p.Alloc("a", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Alloc("c", 31); err == nil {
		t.Fatalf("expected OOM")
	}
	if p.Used() != 70 {
		t.Fatalf("Used=%d after a refused allocation, want 70", p.Used())
	}
	if err := p.Alloc("c", 30); err != nil {
		t.Fatalf("allocation up to capacity refused: %v", err)
	}
}

func TestPoolConcurrentSafety(t *testing.T) {
	p := NewPool("g", 1<<40)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := p.Alloc("x", 8); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.Used() != 8*200*8 {
		t.Fatalf("Used=%d, want %d", p.Used(), 8*200*8)
	}
}
