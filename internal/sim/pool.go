package sim

import (
	"context"

	"aid/internal/par"
	"aid/internal/trace"
)

// BatchOptions configures a RunBatch sweep. Plan and MaxSteps apply to
// every execution, as in RunOptions.
type BatchOptions struct {
	// Plan is the fault-injection plan (nil for uninstrumented runs).
	Plan Plan
	// MaxSteps is the per-run step budget; zero or negative means
	// DefaultMaxSteps.
	MaxSteps int
	// Workers is the pool width; <= 0 means GOMAXPROCS.
	Workers int
}

// RunBatch executes the program once per seed, fanning the runs across
// a worker pool, and returns the executions in seed order.
//
// Each run is fully isolated (Run copies all mutable program state), so
// the batch output is bit-identical to calling Run sequentially over
// the same seeds regardless of worker count. The program and plan are
// shared read-only across workers and must not be mutated concurrently.
// The first error in seed order cancels the remaining runs; a run that
// panics surfaces as a *par.PanicError instead of crashing the process.
// Cancelling ctx stops the sweep within one task-drain and returns
// ctx.Err() (see par.Map's cancellation contract).
func RunBatch(ctx context.Context, p *Program, seeds []int64, opts BatchOptions) ([]trace.Execution, error) {
	// Compile the program and splice the plan once; the workers share
	// the read-only Prepared and only pay for the runs.
	pp, err := Prepare(p, opts.Plan)
	if err != nil {
		return nil, err
	}
	return par.Map(ctx, len(seeds), opts.Workers, func(i int) (trace.Execution, error) {
		return pp.Run(seeds[i], opts.MaxSteps), nil
	})
}
