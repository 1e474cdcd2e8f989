package coalesce

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDirectPathRefusedAfterDrain: a direct call bracketed before Drain
// holds Drain open until ExitDirect; once Drain has begun, EnterDirect
// refuses with ErrDraining (as Submit does), so no call can start after
// Drain reported the coalescer idle.
func TestDirectPathRefusedAfterDrain(t *testing.T) {
	c := New(context.Background(), Config[int, int]{
		Call:     func(context.Context, []int) (int, error) { return 0, nil },
		MaxBatch: 4,
		Capacity: 16,
	})
	if err := c.EnterDirect(); err != nil {
		t.Fatalf("EnterDirect before drain: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()
	for !c.Closed() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a direct call was in flight", err)
	default:
	}
	if err := c.EnterDirect(); !errors.Is(err, ErrDraining) {
		t.Fatalf("EnterDirect after drain began: %v, want ErrDraining", err)
	}
	c.ExitDirect()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := c.EnterDirect(); !errors.Is(err, ErrDraining) {
		t.Fatalf("EnterDirect after drain finished: %v, want ErrDraining", err)
	}
}
