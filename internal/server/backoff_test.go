package server

import (
	"context"
	"testing"
	"time"
)

// The schedule is asserted directly — no sleeping: Delay is pure once
// the random source is injected.
func TestBackoffScheduleGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second, // stays capped
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	if got := b.Delay(-3); got != 100*time.Millisecond {
		t.Errorf("Delay(-3) = %v, want base", got)
	}
	if got := b.Delay(200); got != time.Second {
		t.Errorf("Delay(200) = %v, want cap (no overflow)", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// Injected extremes: rand=0 gives the floor, rand→1 the ceiling.
	lo := Backoff{Base: time.Second, Cap: time.Minute, Jitter: 0.5, Rand: func() float64 { return 0 }}
	hi := Backoff{Base: time.Second, Cap: time.Minute, Jitter: 0.5, Rand: func() float64 { return 0.999999 }}
	if got := lo.Delay(0); got != 500*time.Millisecond {
		t.Errorf("floor Delay(0) = %v, want 500ms", got)
	}
	if got := hi.Delay(0); got < 999*time.Millisecond || got > time.Second {
		t.Errorf("ceiling Delay(0) = %v, want just under 1s", got)
	}
	// Default jitter (field zero) behaves as equal jitter, not none.
	def := Backoff{Base: time.Second, Cap: time.Minute, Rand: func() float64 { return 0 }}
	if got := def.Delay(0); got != 500*time.Millisecond {
		t.Errorf("default-jitter floor Delay(0) = %v, want 500ms", got)
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	b.Jitter = -1
	if got := b.Delay(0); got != 50*time.Millisecond {
		t.Errorf("zero-value base = %v, want 50ms", got)
	}
	if got := b.Delay(100); got != 5*time.Second {
		t.Errorf("zero-value cap = %v, want 5s", got)
	}
}

// Sleep honors the context as the total retry budget: an expired
// context returns immediately, without waiting out the delay.
func TestBackoffSleepHonorsContextBudget(t *testing.T) {
	b := Backoff{Base: time.Hour, Jitter: -1} // would sleep forever
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := b.Sleep(ctx, 0); err != context.Canceled {
		t.Fatalf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Sleep waited %v despite cancelled ctx", elapsed)
	}
}
