package casestudy_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"aid"
	"aid/internal/casestudy"
)

// TestFullPipeline runs the complete AID pipeline on every case study
// and checks the paper's qualitative claims: the root cause has the
// study's expected kind, the causal path is non-empty and shorter than
// SD's fully-discriminative set, AID needs no more interventions than
// TAGT, and TAGT stays within its exact worst case. The 30+30 corpus
// with 5 replays is the configuration the report goldens pin byte for
// byte.
func TestFullPipeline(t *testing.T) {
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			pipeline := aid.New(aid.WithCorpusSize(30, 30), aid.WithReplays(5))
			rep, err := pipeline.Run(context.Background(), aid.FromStudy(s))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: discr=%d path=%d AID=%d TAGT=%d root=%s",
				rep.Study, rep.Discriminative, rep.CausalPathLen,
				rep.AIDInterventions, rep.TAGTInterventions, rep.RootCause)
			t.Logf("explanation:\n  %s", strings.Join(rep.Explanation, "\n  "))
			if !strings.HasPrefix(rep.RootCause, s.WantRootPrefix) {
				t.Errorf("root cause = %s, want prefix %s", rep.RootCause, s.WantRootPrefix)
			}
			if rep.CausalPathLen < 1 {
				t.Error("empty causal path")
			}
			if rep.Discriminative <= rep.CausalPathLen {
				t.Errorf("SD should find more predicates (%d) than the causal path (%d)",
					rep.Discriminative, rep.CausalPathLen)
			}
			if rep.AIDInterventions > rep.TAGTInterventions {
				t.Errorf("AID used %d interventions, TAGT %d — AID should not lose",
					rep.AIDInterventions, rep.TAGTInterventions)
			}
			// grouptest.Adaptive's exact bound D·(⌈log₂N⌉+1)+1: one
			// whole-pool test and one binary search per cause, plus the
			// final clearing test. The pool is the AC-DAG minus F. (The
			// report's TAGTWorstCase is the paper's D·⌈log₂N⌉ column, not
			// this cap.)
			n := rep.DAGNodes - 1
			bound := rep.CausalPathLen*(int(math.Ceil(math.Log2(float64(n))))+1) + 1
			if rep.TAGTInterventions > bound {
				t.Errorf("TAGT used %d interventions, over its D·(⌈log₂N⌉+1)+1 = %d bound (N=%d, D=%d)",
					rep.TAGTInterventions, bound, n, rep.CausalPathLen)
			}
		})
	}
}

// TestRunVariants compares the ablations on the network study: full
// AID needs no more rounds than AID-P-B, and an unknown variant is
// rejected.
func TestRunVariants(t *testing.T) {
	ctx := context.Background()
	s := casestudy.ByName("network")
	rounds := map[aid.Variant]int{}
	for _, v := range []aid.Variant{aid.VariantAID, aid.VariantAIDP, aid.VariantAIDPB} {
		rep, err := aid.New(aid.WithCorpusSize(25, 25), aid.WithVariant(v)).Run(ctx, aid.FromStudy(s))
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		if rep.RootCause == "" {
			t.Fatalf("variant %s found no root cause", v)
		}
		rounds[v] = rep.AIDInterventions
	}
	if rounds[aid.VariantAID] > rounds[aid.VariantAIDPB] {
		t.Fatalf("full AID (%d rounds) should not exceed AID-P-B (%d)", rounds[aid.VariantAID], rounds[aid.VariantAIDPB])
	}
	if _, err := aid.New(aid.WithVariant("bogus")).Run(ctx, aid.FromStudy(s)); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
