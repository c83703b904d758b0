package sim

import (
	"context"
	"sync/atomic"
)

// OpsCounter accumulates retired simulated operations for one
// experiment run. Unlike the process-wide RetiredOps counter, which
// concurrent experiments inflate for each other, an OpsCounter receives
// flushes only from the machines explicitly attached to it, so
// per-experiment throughput numbers stay exact under any parallelism.
//
// Machines flush in bulk at Drain/ResetStats and once after each run
// (FlushOps), so the per-op simulator path never touches the counter;
// the atomic only makes the final read race-free against a machine
// flushing on another goroutine.
type OpsCounter struct {
	n atomic.Uint64
}

func (c *OpsCounter) add(d uint64) { c.n.Add(d) }

// Total returns the operations flushed into the counter so far.
func (c *OpsCounter) Total() uint64 { return c.n.Load() }

type opsSinkKey struct{}

// WithOpsSink returns a context carrying c, so machine construction
// sites can attach their machines to the surrounding run's counter via
// AttachOps without a parameter threaded through every experiment
// signature.
func WithOpsSink(ctx context.Context, c *OpsCounter) context.Context {
	return context.WithValue(ctx, opsSinkKey{}, c)
}

// OpsSinkFrom returns the context's ops counter, or nil.
func OpsSinkFrom(ctx context.Context) *OpsCounter {
	c, _ := ctx.Value(opsSinkKey{}).(*OpsCounter)
	return c
}

// SetOpsSink directs the machine's future retired-op flushes into c as
// well as the process-wide counter (nil detaches).
func (m *Machine) SetOpsSink(c *OpsCounter) { m.opsSink = c }

// AttachOps connects the machine to the context's ops counter, if one
// is present, and returns the machine for chaining at construction
// sites:
//
//	m := sim.MachineA().AttachOps(ctx)
func (m *Machine) AttachOps(ctx context.Context) *Machine {
	if c := OpsSinkFrom(ctx); c != nil {
		m.opsSink = c
	}
	return m
}
