package server

import (
	"context"
	"math/rand"
	"time"
)

// Backoff is a capped exponential backoff schedule with jitter: each
// delay doubles the one before. The zero value is usable: 50 ms base,
// 5 s cap, equal jitter. Every job-API client paces its retries with
// it (Client.Submit's 429s, the coordinator's busy shards, stream
// reconnects), so a fleet of clients facing a full queue spreads out
// instead of thundering in lockstep.
type Backoff struct {
	// Base is the delay before the first retry; <= 0 means 50 ms.
	Base time.Duration
	// Cap bounds the grown delay; <= 0 means 5 s.
	Cap time.Duration
	// Jitter is the fraction of each delay that is randomized in
	// [0, Jitter); 0 means 0.5 ("equal jitter": half fixed, half
	// random). Set negative for a deterministic schedule.
	Jitter float64
	// Rand returns a float64 in [0, 1); nil means math/rand. Tests
	// inject a fixed source so schedules are asserted without sleeping.
	Rand func() float64
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 50 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) cap() time.Duration {
	if b.Cap <= 0 {
		return 5 * time.Second
	}
	return b.Cap
}

// Delay returns the pause before retry attempt (0-based): base·2^attempt,
// capped, with the configured fraction of it re-drawn uniformly at
// random. The jittered delay never exceeds the cap and never falls
// below (1−jitter)·capped.
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := float64(b.base())
	capped := float64(b.cap())
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= capped {
			d = capped
			break
		}
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.5
	}
	if jitter > 0 {
		r := b.Rand
		if r == nil {
			r = rand.Float64
		}
		if jitter > 1 {
			jitter = 1
		}
		d = d*(1-jitter) + d*jitter*r()
	}
	return time.Duration(d)
}

// Sleep pauses for Delay(attempt), or returns ctx's error first: the
// context is the total retry budget, so a deadline or cancellation
// ends a retry loop mid-pause instead of after it.
func (b Backoff) Sleep(ctx context.Context, attempt int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
