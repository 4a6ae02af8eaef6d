package aid_test

import (
	"bytes"
	"context"
	"testing"

	"aid"
	"aid/internal/effects"
)

// runWithEffects runs a 30/30 pipeline over src and returns the report
// plus the EffectsAnalyzed event (zero value when the stage is off).
func runWithEffects(t *testing.T, src aid.TraceSource, on bool, extra ...aid.Option) (*aid.Report, aid.EffectsAnalyzed) {
	t.Helper()
	var ea aid.EffectsAnalyzed
	opts := append([]aid.Option{
		aid.WithCorpusSize(30, 30),
		aid.WithEffectAnalysis(on),
		aid.WithObserver(aid.ObserverFunc(func(e aid.Event) {
			if v, ok := e.(aid.EffectsAnalyzed); ok {
				ea = v
			}
		})),
	}, extra...)
	rep, err := aid.New(opts...).Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return rep, ea
}

func reportJSON(t *testing.T, rep *aid.Report) []byte {
	t.Helper()
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestEffectAnalysisOffByteIdentity pins the default: with the option
// off (explicitly or by default) the pipeline's output is byte-identical
// to a pipeline that never heard of effect analysis.
func TestEffectAnalysisOffByteIdentity(t *testing.T) {
	ctx := context.Background()
	study := aid.CaseStudyByName("npgsql")
	base, err := aid.New(aid.WithCorpusSize(30, 30)).Run(ctx, aid.FromStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	off, ea := runWithEffects(t, aid.FromStudy(study), false)
	if !bytes.Equal(reportJSON(t, base), reportJSON(t, off)) {
		t.Error("WithEffectAnalysis(false) changed the report")
	}
	if ea != (aid.EffectsAnalyzed{}) {
		t.Errorf("effects stage emitted %+v with the option off", ea)
	}
}

// TestEffectAnalysisNoOpStudies: for studies where the derived
// side-effect-free set adds nothing beyond the hand annotations that
// matter to the DAG, turning the analysis on is a complete no-op —
// byte-identical reports. (The other studies gain extra safe
// candidates; TestEffectAnalysisPreservesRootCause covers them.)
func TestEffectAnalysisNoOpStudies(t *testing.T) {
	for _, name := range []string{"npgsql", "cosmosdb", "healthtelemetry"} {
		study := aid.CaseStudyByName(name)
		off, _ := runWithEffects(t, aid.FromStudy(study), false)
		on, ea := runWithEffects(t, aid.FromStudy(study), true)
		if !bytes.Equal(reportJSON(t, off), reportJSON(t, on)) {
			t.Errorf("%s: effects-on report differs from effects-off", name)
		}
		if ea.Pruned != 0 || ea.Contradicted != 0 {
			t.Errorf("%s: event %+v, want zero pruned and zero contradictions", name, ea)
		}
	}
}

// TestEffectAnalysisPreservesRootCause: across every case study,
// enabling the analysis never prunes a study predicate (their annotated
// functions all observe shared state), never contradicts a hand
// annotation, and never changes the confirmed root cause or its causal
// path length.
func TestEffectAnalysisPreservesRootCause(t *testing.T) {
	for _, study := range aid.CaseStudies() {
		study := study
		t.Run(study.Name, func(t *testing.T) {
			t.Parallel()
			off, _ := runWithEffects(t, aid.FromStudy(study), false)
			on, ea := runWithEffects(t, aid.FromStudy(study), true)
			if ea.Functions == 0 {
				t.Fatal("no EffectsAnalyzed event observed")
			}
			if ea.Pruned != 0 {
				t.Errorf("pruned %d predicates; the studies have no prunable regions", ea.Pruned)
			}
			if ea.Contradicted != 0 {
				t.Errorf("%d hand annotations contradicted", ea.Contradicted)
			}
			if on.TotalPredicates != off.TotalPredicates {
				t.Errorf("TotalPredicates %d with effects on, %d off", on.TotalPredicates, off.TotalPredicates)
			}
			if on.RootCause != off.RootCause {
				t.Errorf("root cause changed: %q with effects on, %q off", on.RootCause, off.RootCause)
			}
			// Widening the side-effect-free set can only admit more safe
			// candidates into the DAG, so the causal explanation may grow
			// but never lose nodes.
			if on.CausalPathLen < off.CausalPathLen {
				t.Errorf("causal path shrank: %d with effects on, %d off", on.CausalPathLen, off.CausalPathLen)
			}
		})
	}
}

// TestEffectPruningDemo exercises the pruning path end to end on the
// demo workload (a lost-update race surrounded by pure checksum and
// relay helpers): with the analysis on, every helper-anchored predicate
// is dropped before ranking, discovery confirms the same root cause,
// and the intervention budget shrinks.
func TestEffectPruningDemo(t *testing.T) {
	const wantCause = "race:WriterA|WriterB@counter"
	off, _ := runWithEffects(t, aid.FromProgram(effects.PruningDemo(4, 6)), false)
	on, ea := runWithEffects(t, aid.FromProgram(effects.PruningDemo(4, 6)), true)

	if off.RootCause != wantCause || on.RootCause != wantCause {
		t.Fatalf("root cause off=%q on=%q, want %q", off.RootCause, on.RootCause, wantCause)
	}
	if ea.Pruned == 0 {
		t.Fatal("no predicates pruned on the demo workload")
	}
	if ea.Contradicted != 0 {
		t.Errorf("%d hand annotations contradicted", ea.Contradicted)
	}
	// 4 checksums (pure) + 6 relays (param-pure) out of 13 functions.
	if ea.Prunable != 10 {
		t.Errorf("Prunable = %d, want 10", ea.Prunable)
	}
	if on.TotalPredicates != off.TotalPredicates-ea.Pruned {
		t.Errorf("TotalPredicates %d with effects on, want %d - %d pruned = %d",
			on.TotalPredicates, off.TotalPredicates, ea.Pruned, off.TotalPredicates-ea.Pruned)
	}
	if on.AIDInterventions >= off.AIDInterventions {
		t.Errorf("AID interventions %d with pruning on, %d off; pruning should shrink the budget",
			on.AIDInterventions, off.AIDInterventions)
	}
}
