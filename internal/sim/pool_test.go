package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"aid/internal/par"
	"aid/internal/trace"
)

// panicOp is a test-only operation whose execution panics, standing in
// for interpreter bugs inside one worker of a batch.
type panicOp struct{}

func (panicOp) opName() string { return "panic" }

// batchProgram is a small two-thread racy program: failure-or-success
// depends on the schedule seed.
func batchProgram() *Program {
	p := NewProgram("batch", "Main")
	p.Globals["x"] = 0
	p.AddFunc("Main",
		Spawn{Fn: "Writer", Dst: "t"},
		ReadGlobal{Dst: "v", Var: "x"},
		Arith{Dst: "v", A: V("v"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "x", Src: V("v")},
		Join{Thread: V("t")},
	)
	p.AddFunc("Writer",
		ReadGlobal{Dst: "w", Var: "x"},
		Arith{Dst: "w", A: V("w"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "x", Src: V("w")},
	)
	return p
}

func TestRunBatchMatchesSequential(t *testing.T) {
	p := batchProgram()
	seeds := make([]int64, 50)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	want := make([]trace.Execution, 0, len(seeds))
	for _, s := range seeds {
		want = append(want, MustRun(p, s, RunOptions{}))
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunBatch(context.Background(), p, seeds, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batch output differs from sequential runs", workers)
		}
	}
}

func TestRunBatchEmptySeeds(t *testing.T) {
	got, err := RunBatch(context.Background(), batchProgram(), nil, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d executions for empty seed slice", len(got))
	}
}

func TestRunBatchMaxStepsExpiry(t *testing.T) {
	p := NewProgram("spin", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(1)}, Body: []Op{Nop{}}},
	)
	got, err := RunBatch(context.Background(), p, []int64{1, 2, 3}, BatchOptions{
		MaxSteps: 50,
		Workers:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		if !e.Failed() || e.FailureSig != SigHang {
			t.Fatalf("execution %d: outcome %v sig %q, want hang", i, e.Outcome, e.FailureSig)
		}
	}
}

func TestRunBatchInvalidProgramError(t *testing.T) {
	p := NewProgram("bad", "Main")
	p.AddFunc("Main", Call{Fn: "Missing"})
	if _, err := RunBatch(context.Background(), p, []int64{1, 2, 3, 4}, BatchOptions{Workers: 2}); err == nil {
		t.Fatal("want validation error, got nil")
	}
}

// firstPanicIndex finds the seed index a sequential sweep would panic
// on first, recovering the panic.
func firstPanicIndex(p *Program, seeds []int64) int {
	for i, s := range seeds {
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			MustRun(p, s, RunOptions{})
			return false
		}()
		if panicked {
			return i
		}
	}
	return -1
}

// TestRunBatchPanicPropagates checks that a panic inside one worker
// surfaces as an error (not a process crash), that it is the panic the
// sequential sweep would have hit first, and that the pool drains
// cleanly without leaking goroutines.
func TestRunBatchPanicPropagates(t *testing.T) {
	p := NewProgram("boom", "Main")
	// Seed-dependent panic: roughly half the seeds take the panic branch.
	p.AddFunc("Main",
		Random{Dst: "r", N: Lit(2)},
		If{Cond: Cond{A: V("r"), Op: EQ, B: Lit(0)}, Then: []Op{panicOp{}}},
	)
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	wantIdx := firstPanicIndex(p, seeds)
	if wantIdx < 0 {
		t.Fatal("no seed panicked sequentially; test program is broken")
	}
	before := runtime.NumGoroutine()
	_, err := RunBatch(context.Background(), p, seeds, BatchOptions{Workers: 4})
	if err == nil {
		t.Fatal("want panic error, got nil")
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *par.PanicError, got %T: %v", err, err)
	}
	if pe.Index != wantIdx {
		t.Fatalf("panic reported at index %d, sequential first panic at %d", pe.Index, wantIdx)
	}
	// Drain check: all workers must have exited once RunBatch returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}
