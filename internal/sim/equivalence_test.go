package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"aid/internal/trace"
)

// This file is the compiled engine's oracle harness: every program is
// run by both engines and the JSON-encoded traces must be
// byte-identical. The interpreter (EngineInterpreter) is the reference
// semantics; the compiled engine must match it step for step, because
// timestamps and the scheduler's RNG draws are step counters.

// assertEngineParity runs p under both engines for each seed and fails
// on the first byte difference.
func assertEngineParity(t *testing.T, p *Program, seeds []int64, plan Plan, maxSteps int) {
	t.Helper()
	for _, seed := range seeds {
		want, err := Run(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps, Engine: EngineInterpreter})
		if err != nil {
			t.Fatalf("%s seed %d: interpreter: %v", p.Name, seed, err)
		}
		got, err := Run(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps, Engine: EngineCompiled})
		if err != nil {
			t.Fatalf("%s seed %d: compiled: %v", p.Name, seed, err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Fatalf("%s seed %d: engines diverge\ninterpreter: %s\ncompiled:    %s",
				p.Name, seed, wj, gj)
		}
	}
}

func TestEquivalenceHandWrittenPrograms(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 7, 42, 97}
	progs := []*Program{
		sequentialProgram(),
		racyProgram(),
		batchProgram(),
	}
	for _, p := range progs {
		assertEngineParity(t, p, seeds, nil, 0)
	}
	for _, plan := range racyPlans() {
		assertEngineParity(t, racyProgram(), seeds, plan, 0)
	}
}

// racyPlans are the injected variants of the racy program: the Fig. 2
// intervention vocabulary, one mechanism at a time and all merged.
func racyPlans() []Plan {
	seven := int64(7)
	return []Plan{
		{"Worker": {GlobalLocks: []string{"inj"}}},
		{"Worker": {DelayStart: 3, DelayReturn: 5}},
		{"Worker": {ForceReturnVoid: true}},
		{"Worker": {OverrideReturn: &seven}},
		{"Worker": {CatchExceptions: true, CatchValue: 9}},
		{
			"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 2, SignalAfter: []Signal{{Var: "w.done", Val: 1}}},
			"Main":   {WaitBefore: nil, DelayReturn: 1},
		},
	}
}

func TestEquivalenceOrderInjection(t *testing.T) {
	p, plan := orderProgram()
	assertEngineParity(t, p, []int64{0, 1, 2, 3, 4, 5}, plan, 0)
}

// orderProgram is a two-thread write/read program with the
// order-enforcing plan that serializes the write before the read.
func orderProgram() (*Program, Plan) {
	p := NewProgram("order", "Main")
	p.Globals["g"] = 0
	p.AddFunc("A", WriteGlobal{Var: "g", Src: Lit(1)})
	p.AddFunc("B", ReadGlobal{Var: "g", Dst: "x"}, Return{Val: V("x")})
	p.AddFunc("Main",
		Spawn{Fn: "A", Dst: "ta"},
		Spawn{Fn: "B", Dst: "tb"},
		Join{Thread: V("ta")},
		Join{Thread: V("tb")},
	)
	return p, Plan{
		"A": {SignalAfter: []Signal{{Var: "aid.order:t", Val: 1}}},
		"B": {WaitBefore: []Signal{{Var: "aid.order:t", Val: 1}}},
	}
}

// genProgram builds a random structured program: nested control flow,
// shared state, locks, spawns, exceptions — everything both engines
// must agree on, including runs that deadlock, hang, or crash.
func genProgram(r *rand.Rand, id int) *Program {
	p := NewProgram(fmt.Sprintf("fuzz%03d", id), "Main")
	for g := 0; g < 3; g++ {
		p.Globals[fmt.Sprintf("g%d", g)] = int64(r.Intn(3))
	}
	p.Arrays["arr"] = make([]int64, r.Intn(4))
	for i := range p.Arrays["arr"] {
		p.Arrays["arr"][i] = int64(r.Intn(10))
	}
	nFuncs := 2 + r.Intn(3)
	names := make([]string, nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("F%d", i)
	}
	g := &fuzzGen{r: r, names: names}
	for i := nFuncs - 1; i >= 0; i-- {
		// Fi may only call Fj with j > i, so call graphs stay acyclic
		// and runs terminate (up to deliberate infinite loops).
		g.callable = names[i+1:]
		p.AddFunc(names[i], g.block(2, 4+r.Intn(4))...)
	}
	g.callable = names
	body := []Op{}
	spawns := r.Intn(3)
	for s := 0; s < spawns; s++ {
		body = append(body, Spawn{Fn: names[r.Intn(len(names))], Dst: fmt.Sprintf("t%d", s)})
	}
	body = append(body, g.block(2, 5+r.Intn(5))...)
	for s := 0; s < spawns; s++ {
		if r.Intn(2) == 0 {
			body = append(body, Join{Thread: V(fmt.Sprintf("t%d", s))})
		}
	}
	p.AddFunc("Main", body...)
	return p
}

type fuzzGen struct {
	r        *rand.Rand
	names    []string
	callable []string
	loops    int
}

func (g *fuzzGen) expr() Expr {
	if g.r.Intn(2) == 0 {
		return Lit(int64(g.r.Intn(7) - 1))
	}
	return V(fmt.Sprintf("v%d", g.r.Intn(4)))
}

func (g *fuzzGen) cond() Cond {
	return Cond{A: g.expr(), Op: CmpOp(g.r.Intn(6)), B: g.expr()}
}

func (g *fuzzGen) block(depth, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, g.op(depth))
	}
	return ops
}

func (g *fuzzGen) op(depth int) Op {
	r := g.r
	kinds := []string{"K0", "K1", ExcObjectDisposed}
	switch k := r.Intn(22); {
	case k == 0:
		return Assign{Dst: fmt.Sprintf("v%d", r.Intn(4)), Src: g.expr()}
	case k == 1:
		return Arith{Dst: fmt.Sprintf("v%d", r.Intn(4)), A: g.expr(), Op: ArithOp(r.Intn(5)), B: g.expr()}
	case k == 2:
		return ReadGlobal{Var: fmt.Sprintf("g%d", r.Intn(3)), Dst: fmt.Sprintf("v%d", r.Intn(4))}
	case k == 3:
		return WriteGlobal{Var: fmt.Sprintf("g%d", r.Intn(3)), Src: g.expr()}
	case k == 4:
		return ArrayRead{Arr: "arr", Index: g.expr(), Dst: fmt.Sprintf("v%d", r.Intn(4))}
	case k == 5:
		return ArrayWrite{Arr: "arr", Index: g.expr(), Src: g.expr()}
	case k == 6:
		if r.Intn(2) == 0 {
			return ArrayLen{Arr: "arr", Dst: fmt.Sprintf("v%d", r.Intn(4))}
		}
		return ArrayResize{Arr: "arr", Len: g.expr()}
	case k == 7:
		return Lock{Mu: fmt.Sprintf("m%d", r.Intn(2))}
	case k == 8:
		return Unlock{Mu: fmt.Sprintf("m%d", r.Intn(2))}
	case k == 9:
		return Sleep{Ticks: Lit(int64(r.Intn(5)))}
	case k == 10 && len(g.callable) > 0:
		fn := g.callable[r.Intn(len(g.callable))]
		dst := ""
		if r.Intn(2) == 0 {
			dst = fmt.Sprintf("v%d", r.Intn(4))
		}
		return Call{Fn: fn, Dst: dst}
	case k == 11:
		if r.Intn(2) == 0 {
			return Return{Val: g.expr()}
		}
		return ReturnVoid{}
	case k == 12:
		return Throw{Kind: kinds[r.Intn(len(kinds))]}
	case k == 13 && depth > 0:
		catch := kinds[r.Intn(len(kinds))]
		if r.Intn(3) == 0 {
			catch = "*"
		}
		return Try{
			Body:      g.block(depth-1, 1+r.Intn(3)),
			CatchKind: catch,
			Handler:   g.block(depth-1, r.Intn(3)),
		}
	case k == 14 && depth > 0:
		var els []Op
		if r.Intn(2) == 0 {
			els = g.block(depth-1, r.Intn(3))
		}
		return If{Cond: g.cond(), Then: g.block(depth-1, r.Intn(3)), Else: els}
	case k == 15 && depth > 0:
		// Counter-bounded loop most of the time; one unbounded loop per
		// program at most keeps hang runs (also compared!) rare.
		i := fmt.Sprintf("i%d", g.loops)
		g.loops++
		body := g.block(depth-1, 1+r.Intn(3))
		body = append(body, Arith{Dst: i, A: V(i), Op: OpAdd, B: Lit(1)})
		return If{Cond: Cond{A: Lit(0), Op: EQ, B: Lit(0)}, Then: []Op{
			Assign{Dst: i, Src: Lit(0)},
			While{Cond: Cond{A: V(i), Op: LT, B: Lit(int64(1 + r.Intn(3)))}, Body: body},
		}}
	case k == 16:
		return Random{Dst: fmt.Sprintf("v%d", r.Intn(4)), N: g.expr()}
	case k == 17:
		return ReadClock{Dst: fmt.Sprintf("v%d", r.Intn(4))}
	case k == 18:
		return WaitUntil{Var: fmt.Sprintf("g%d", r.Intn(3)), Val: Lit(int64(r.Intn(2)))}
	case k == 19 && r.Intn(4) == 0:
		return Fail{Sig: "corruption"}
	default:
		return Nop{}
	}
}

// genPlan builds a random injection plan over the program's functions.
func genPlan(r *rand.Rand, p *Program) Plan {
	plan := Plan{}
	for _, fn := range p.FuncNames() {
		if r.Intn(3) != 0 {
			continue
		}
		var inj MethodInjection
		switch r.Intn(6) {
		case 0:
			inj.GlobalLocks = []string{"aid.lock:x"}
			if r.Intn(2) == 0 {
				inj.GlobalLocks = append(inj.GlobalLocks, "aid.lock:y")
			}
		case 1:
			inj.DelayStart = trace.Time(r.Intn(4))
			inj.DelayReturn = trace.Time(r.Intn(4))
		case 2:
			v := int64(r.Intn(5))
			inj.ForceReturn = &v
		case 3:
			inj.ForceReturnVoid = true
		case 4:
			v := int64(r.Intn(5))
			inj.OverrideReturn = &v
		case 5:
			inj.CatchExceptions = true
			inj.CatchValue = int64(r.Intn(5))
		}
		if r.Intn(4) == 0 {
			inj.SignalAfter = []Signal{{Var: "aid.flag", Val: 1}}
		}
		if !inj.Empty() {
			plan[fn] = inj
		}
	}
	return plan
}

// TestEquivalenceProperty is the compiled-vs-interpreted property test:
// randomized programs, seeds and injection plans must produce
// byte-identical JSON traces on both engines, including deadlocking,
// hanging and crashing runs.
func TestEquivalenceProperty(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	r := rand.New(rand.NewSource(20260728))
	for i := 0; i < n; i++ {
		p := genProgram(r, i)
		assertEngineParity(t, p, []int64{1, 2, 3}, nil, 2000)
		assertEngineParity(t, p, []int64{1, 2}, genPlan(r, p), 2000)
	}
}
