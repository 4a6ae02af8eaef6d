package casestudy_test

import (
	"context"
	"testing"

	"aid"
	"aid/internal/casestudy"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/sim"
)

// discover runs the pipeline's stages once over a 25+25 corpus of s,
// returning the collected traces, their predicate corpus and AID's
// result, so the repair checks replay exactly the failing seeds and
// predicates discovery reasoned about.
func discover(t *testing.T, s *casestudy.Study) (*aid.Traces, *aid.Corpus, *aid.Result) {
	t.Helper()
	ctx := context.Background()
	p := aid.New(aid.WithCorpusSize(25, 25))
	tr, err := p.Collect(ctx, aid.FromStudy(s))
	if err != nil {
		t.Fatal(err)
	}
	corpus := p.Extract(tr)
	dag, _, err := p.BuildDAG(corpus, p.Rank(corpus).Fully)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Discover(ctx, tr, corpus, dag)
	if err != nil {
		t.Fatal(err)
	}
	return tr, corpus, res
}

// TestRootCausePathRepairsEveryFailingSeed is the strongest end-to-end
// property: for each case study, every predicate on AID's discovered
// causal path, when repaired on its own, must prevent the failure on
// every failing seed of the corpus — each path element is a
// counterfactual cause, not just a correlate (Definition 1).
func TestRootCausePathRepairsEveryFailingSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("repair validation is slow")
	}
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			tr, corpus, res := discover(t, s)
			for _, cause := range res.Path {
				if cause == predicate.FailureID {
					continue
				}
				plan, err := inject.PlanFor(corpus, []predicate.ID{cause})
				if err != nil {
					t.Fatalf("plan for %s: %v", cause, err)
				}
				for _, seed := range tr.FailSeeds {
					exec := sim.MustRun(s.Program, seed, sim.RunOptions{Plan: plan, MaxSteps: s.MaxSteps})
					if exec.Failed() && exec.FailureSig == s.FailureSig {
						t.Fatalf("repairing %s did not prevent the failure on seed %d",
							cause, seed)
					}
				}
			}
		})
	}
}

// TestSpuriousPredicatesDoNotRepair checks the complementary property
// on a sample: repairing a predicate AID classified spurious leaves the
// failure reproducible on at least one failing seed.
func TestSpuriousPredicatesDoNotRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("repair validation is slow")
	}
	for _, name := range []string{"npgsql", "network", "healthtelemetry"} {
		s := casestudy.ByName(name)
		t.Run(s.Name, func(t *testing.T) {
			tr, corpus, res := discover(t, s)
			checked := 0
			for _, spur := range res.Spurious {
				if checked >= 5 {
					break
				}
				p := corpus.Pred(spur)
				if p == nil || p.Repair.Kind == predicate.IvNone || !p.Repair.Safe {
					continue
				}
				plan, err := inject.PlanFor(corpus, []predicate.ID{spur})
				if err != nil {
					t.Fatalf("plan for %s: %v", spur, err)
				}
				stillFails := false
				for _, seed := range tr.FailSeeds {
					exec := sim.MustRun(s.Program, seed, sim.RunOptions{Plan: plan, MaxSteps: s.MaxSteps})
					if exec.Failed() && exec.FailureSig == s.FailureSig {
						stillFails = true
						break
					}
				}
				if !stillFails {
					t.Errorf("repairing spurious %s prevented the failure on every seed", spur)
				}
				checked++
			}
			if checked == 0 {
				t.Skip("no safely-repairable spurious predicates to check")
			}
		})
	}
}
