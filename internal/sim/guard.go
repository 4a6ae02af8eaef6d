// Guarded replay: fault containment for the compiled engine.
//
// A replay under an injection plan executes adversarial instruction
// splices; a bug in a plan translation (or in the engine itself) must
// cost one observation, not the discovery run. RunGuarded is Run with
// three containments: a panic anywhere in the replay is recovered into
// a *ReplayPanicError (and the possibly-corrupt machine is abandoned
// instead of returning to the pool), an optional wall-clock budget
// bounds runaway replays that the step budget alone cannot catch (each
// simulated step can cost unbounded real work), and the budget verdict
// is reported as an explicit *BudgetError rather than a forged trace.
//
// With a zero budget and a non-panicking replay, RunGuarded is
// byte-identical to Run for the same (program, seed, plan) triple — the
// wall-clock check short-circuits on the unset deadline, so the
// deterministic pipeline can route every replay through the guard
// without perturbing its traces.
//
// RunVerdict shares RunGuarded's containment but stops after the run:
// it returns only the failure bit and signature and never assembles the
// trace, for callers (the TAGT oracle) that ask only whether a replay
// failed.
package sim

import (
	"fmt"
	"time"

	"aid/internal/trace"
)

// SigBudget marks runs aborted by RunGuarded's wall-clock budget.
const SigBudget = "wall-budget"

// Budget bounds one guarded replay.
type Budget struct {
	// MaxSteps bounds scheduler steps (0 = DefaultMaxSteps); exceeding
	// it is a hang failure, exactly as in Run.
	MaxSteps int
	// WallClock bounds real elapsed time (0 = unbounded); exceeding it
	// aborts the replay with a *BudgetError.
	WallClock time.Duration
}

// ReplayPanicError reports a panic recovered from inside a guarded
// replay.
type ReplayPanicError struct {
	// Seed is the scheduler seed of the panicking replay.
	Seed int64
	// Value is the recovered panic value.
	Value any
}

func (e *ReplayPanicError) Error() string {
	return fmt.Sprintf("sim: replay with seed %d panicked: %v", e.Seed, e.Value)
}

// BudgetError reports a guarded replay exceeded its wall-clock budget.
type BudgetError struct {
	// Seed is the scheduler seed of the aborted replay.
	Seed int64
	// Budget is the wall-clock bound that was exceeded.
	Budget time.Duration
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: replay with seed %d exceeded wall-clock budget %v", e.Seed, e.Budget)
}

// RunGuarded executes the prepared program once under the given seed
// with fault containment (see the package-file comment). The returned
// error is nil, a *ReplayPanicError, or a *BudgetError; the execution
// is valid only when the error is nil.
func (pp *Prepared) RunGuarded(seed int64, b Budget) (trace.Execution, error) {
	exec, _, _, err := pp.runGuarded(seed, b, true)
	return exec, err
}

// RunVerdict is RunGuarded for callers that need only the outcome: it
// reports whether the replay failed and with which signature — exactly
// RunGuarded's (exec.Failed(), exec.FailureSig) — without assembling
// the trace. Containment and errors are RunGuarded's.
func (pp *Prepared) RunVerdict(seed int64, b Budget) (failed bool, failSig string, err error) {
	_, failed, failSig, err = pp.runGuarded(seed, b, false)
	return failed, failSig, err
}

// runGuarded is the guarded core of RunGuarded and RunVerdict: it runs
// the replay to completion and reads its outcome off the machine,
// assembling the execution only when build is set.
func (pp *Prepared) runGuarded(seed int64, b Budget, build bool) (exec trace.Execution, failed bool, failSig string, err error) {
	maxSteps := b.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	m := machinePool.Get().(*machine)
	pooled := false
	defer func() {
		if rec := recover(); rec != nil {
			// The machine's invariants are unknown after a panic: leak
			// it to the collector rather than poisoning the pool.
			exec, failed, failSig = trace.Execution{}, false, ""
			err = &ReplayPanicError{Seed: seed, Value: rec}
		} else if !pooled {
			m.pp = nil
			machinePool.Put(m)
		}
	}()
	m.reset(pp, seed)
	if b.WallClock > 0 {
		m.wallDeadline = time.Now().Add(b.WallClock)
	}
	m.pushCall(m.newThread(), pp.c.entryFn, -1, -1)
	m.loop(maxSteps)
	if m.failSig == SigBudget {
		err = &BudgetError{Seed: seed, Budget: b.WallClock}
	} else {
		failed, failSig = m.failed, m.failSig
		if build {
			exec = m.buildExecution(seed)
		}
	}
	m.pp = nil
	m.wallDeadline = time.Time{}
	machinePool.Put(m)
	pooled = true
	return exec, failed, failSig, err
}
