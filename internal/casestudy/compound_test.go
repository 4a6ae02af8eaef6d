package casestudy_test

import (
	"context"
	"strings"
	"testing"

	"aid"
	"aid/internal/casestudy"
	"aid/internal/sim"
)

// compoundStudy builds an application whose root cause is a
// conjunction (§3.2: "two predicates A and B in conjunction cause a
// failure"). Each subsystem check throws a degradation exception that
// the caller catches and converts into a lag penalty; the request
// budget only bursts when BOTH subsystems degrade. Each "CheckX fails"
// predicate also fires in successful runs where only that subsystem
// degraded — so neither is fully discriminative alone, but their
// conjunction is, and repairing either one (absorbing its exception so
// the penalty handler never runs) prevents the failure.
func compoundStudy() *casestudy.Study {
	p := sim.NewProgram("compound", "Main")
	p.Globals["diskSlow"] = 0
	p.Globals["netSlow"] = 0
	p.Globals["lag"] = 0

	check := func(name, flag, exc string) {
		p.AddFunc(name,
			sim.ReadGlobal{Var: flag, Dst: "v"},
			sim.If{Cond: sim.Cond{A: sim.V("v"), Op: sim.EQ, B: sim.Lit(1)},
				Then: []sim.Op{sim.Throw{Kind: exc}}},
			sim.Return{Val: sim.Lit(0)},
		).SideEffectFree = true
	}
	check("CheckDisk", "diskSlow", "DiskDegraded")
	check("CheckNet", "netSlow", "NetDegraded")

	penalty := func(exc string) sim.Op {
		return sim.Try{
			Body:      []sim.Op{sim.Call{Fn: map[string]string{"DiskDegraded": "CheckDisk", "NetDegraded": "CheckNet"}[exc]}},
			CatchKind: exc,
			Handler: []sim.Op{
				sim.ReadGlobal{Var: "lag", Dst: "l"},
				sim.Arith{Dst: "l", A: sim.V("l"), Op: sim.OpAdd, B: sim.Lit(1)},
				sim.WriteGlobal{Var: "lag", Src: sim.V("l")},
			},
		}
	}

	p.AddFunc("ValidateBudget",
		sim.ReadGlobal{Var: "lag", Dst: "l"},
		sim.If{Cond: sim.Cond{A: sim.V("l"), Op: sim.GE, B: sim.Lit(2)},
			Then: []sim.Op{sim.Throw{Kind: "SLOViolation"}}},
	).SideEffectFree = true
	p.AddFunc("ServeRequest",
		sim.Call{Fn: "ValidateBudget"},
		sim.Sleep{Ticks: sim.Lit(2)},
	) // mutates request state in the real system

	p.AddFunc("Main",
		sim.Random{Dst: "d", N: sim.Lit(2)},
		sim.If{Cond: sim.Cond{A: sim.V("d"), Op: sim.EQ, B: sim.Lit(0)},
			Then: []sim.Op{sim.WriteGlobal{Var: "diskSlow", Src: sim.Lit(1)}}},
		sim.Random{Dst: "n", N: sim.Lit(2)},
		sim.If{Cond: sim.Cond{A: sim.V("n"), Op: sim.EQ, B: sim.Lit(0)},
			Then: []sim.Op{sim.WriteGlobal{Var: "netSlow", Src: sim.Lit(1)}}},
		penalty("DiskDegraded"),
		penalty("NetDegraded"),
		sim.Call{Fn: "ServeRequest"},
	)

	return &casestudy.Study{
		Name:        "compound",
		Issue:       "synthetic",
		Description: "failure requires both subsystems to degrade simultaneously",
		Program:     p,
		FailureSig:  sim.UncaughtSig("SLOViolation"),
	}
}

// runCompound runs the pipeline over compoundStudy with a 40+30
// corpus and the paper's defaults, plus opts.
func runCompound(t *testing.T, opts ...aid.Option) *aid.Report {
	t.Helper()
	p := aid.New(append([]aid.Option{aid.WithCorpusSize(40, 30)}, opts...)...)
	rep, err := p.Run(context.Background(), aid.FromStudy(compoundStudy()))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCompoundRootCauseDiscovery(t *testing.T) {
	rep := runCompound(t, aid.WithCompounds(10))
	root := rep.RootCause
	if !strings.HasPrefix(root, "and(") {
		t.Fatalf("root cause = %q, want a compound predicate (path %v)", root, rep.Path)
	}
	if !strings.Contains(root, "fails:CheckDisk#0") || !strings.Contains(root, "fails:CheckNet#0") {
		t.Fatalf("compound root %q should conjoin both subsystem checks", root)
	}
}

func TestCompoundDisabledFindsClosestSinglePredicate(t *testing.T) {
	// Without compound generation the conjuncts are not fully
	// discriminative, so AID reports the closest fully-discriminative
	// predicate instead (the budget check that directly raises the
	// failure) — the paper's fallback when no single predicate captures
	// the true root cause.
	rep := runCompound(t)
	for _, id := range rep.Path {
		if strings.HasPrefix(id, "and(") {
			t.Fatalf("compound predicate %s present despite Compounds=0", id)
		}
	}
	if got := rep.RootCause; !strings.HasPrefix(got, "fails:ValidateBudget") {
		t.Fatalf("fallback root cause = %q, want fails:ValidateBudget", got)
	}
}
