package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// guardPanicProgram always hits the test-only panicking op.
func guardPanicProgram() *Program {
	p := NewProgram("guard-panic", "Main")
	p.AddFunc("Main", panicOp{})
	return p
}

// guardSpinProgram burns well past the wall-budget check interval
// (1024 steps) in a tight loop before finishing cleanly.
func guardSpinProgram() *Program {
	p := NewProgram("guard-spin", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(100000)}, Body: []Op{
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
	)
	return p
}

// TestRunGuardedRecoversPanic checks a panic inside a replay surfaces
// as a *ReplayPanicError instead of crashing the process, and that the
// prepared program stays usable afterwards (the panicked machine is
// abandoned, not pooled).
func TestRunGuardedRecoversPanic(t *testing.T) {
	pp, err := Prepare(guardPanicProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		_, err := pp.RunGuarded(seed, Budget{})
		var pe *ReplayPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("seed %d: got %T (%v), want *ReplayPanicError", seed, err, err)
		}
		if pe.Seed != seed {
			t.Fatalf("panic error reports seed %d, want %d", pe.Seed, seed)
		}
	}
	// The pool must still serve clean machines for other programs.
	clean, err := Prepare(batchProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.RunGuarded(1, Budget{}); err != nil {
		t.Fatalf("clean replay after panics: %v", err)
	}
}

// TestRunGuardedWallBudget checks a replay exceeding its wall-clock
// budget aborts with a *BudgetError rather than hanging or forging a
// trace.
func TestRunGuardedWallBudget(t *testing.T) {
	pp, err := Prepare(guardSpinProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns budget is already expired at the first check; the spin
	// program's >100k steps guarantee the checkpoint is reached.
	_, err = pp.RunGuarded(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %T (%v), want *BudgetError", err, err)
	}
	if be.Seed != 1 || be.Budget != time.Nanosecond {
		t.Fatalf("budget error reports seed %d budget %v", be.Seed, be.Budget)
	}
	// An ample budget lets the same replay finish normally.
	if _, err := pp.RunGuarded(1, Budget{MaxSteps: 1 << 20, WallClock: time.Minute}); err != nil {
		t.Fatalf("replay under ample budget: %v", err)
	}
}

// TestRunGuardedZeroBudgetByteIdentical pins the containment wrapper's
// transparency: with no wall budget and no panic, RunGuarded returns
// exactly Run's execution, so the deterministic pipeline can route
// every replay through the guard.
func TestRunGuardedZeroBudgetByteIdentical(t *testing.T) {
	pp, err := Prepare(batchProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		want := pp.Run(seed, 0)
		got, err := pp.RunGuarded(seed, Budget{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: guarded execution differs from Run", seed)
		}
	}
}

// TestVerdictMatchesRunGuarded pins RunVerdict to RunGuarded: on the
// equivalence-test programs and plans — including runs that deadlock,
// hang and crash — the verdict is RunGuarded's (exec.Failed(),
// exec.FailureSig), and a blown wall budget or a panic yields the same
// *BudgetError or *ReplayPanicError.
func TestVerdictMatchesRunGuarded(t *testing.T) {
	check := func(t *testing.T, p *Program, plan Plan, seeds []int64, b Budget) {
		t.Helper()
		pp, err := Prepare(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			exec, gerr := pp.RunGuarded(seed, b)
			failed, sig, verr := pp.RunVerdict(seed, b)
			if !reflect.DeepEqual(verr, gerr) {
				t.Fatalf("%s seed %d: verdict error %v, guarded error %v", p.Name, seed, verr, gerr)
			}
			if failed != exec.Failed() || sig != exec.FailureSig {
				t.Fatalf("%s seed %d: verdict (%v, %q), guarded (%v, %q)",
					p.Name, seed, failed, sig, exec.Failed(), exec.FailureSig)
			}
		}
	}
	seeds := []int64{0, 1, 2, 3, 7, 42, 97}
	for _, p := range []*Program{sequentialProgram(), racyProgram(), batchProgram()} {
		check(t, p, nil, seeds, Budget{})
	}
	for _, plan := range racyPlans() {
		check(t, racyProgram(), plan, seeds, Budget{})
	}
	order, plan := orderProgram()
	check(t, order, nil, seeds, Budget{})
	check(t, order, plan, seeds, Budget{})

	r := rand.New(rand.NewSource(20260728))
	failures := 0
	for i := 0; i < 40; i++ {
		p := genProgram(r, i)
		check(t, p, nil, []int64{1, 2, 3}, Budget{MaxSteps: 2000})
		check(t, p, genPlan(r, p), []int64{1, 2}, Budget{MaxSteps: 2000})
		pp, err := Prepare(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if failed, _, _ := pp.RunVerdict(1, Budget{MaxSteps: 2000}); failed {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no generated program failed: the failing verdict path is untested")
	}

	// Contained errors: a blown wall budget and a panic.
	check(t, guardSpinProgram(), nil, []int64{1}, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond})
	pp, err := Prepare(guardSpinProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var be *BudgetError
	if _, _, err := pp.RunVerdict(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond}); !errors.As(err, &be) {
		t.Fatalf("verdict under 1ns budget: got %T (%v), want *BudgetError", err, err)
	}
	check(t, guardPanicProgram(), nil, []int64{1, 2}, Budget{})
	pp, err = Prepare(guardPanicProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var pe *ReplayPanicError
	if _, _, err := pp.RunVerdict(2, Budget{}); !errors.As(err, &pe) || pe.Seed != 2 {
		t.Fatalf("verdict of panicking replay: got %T (%v), want *ReplayPanicError for seed 2", err, err)
	}
}
