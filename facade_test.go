package aid_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"aid"
)

// TestPipelineDeterministicAcrossWorkers checks the facade preserves
// the pool determinism contract: every pool width produces a
// byte-identical report and a deeply equal discovery result.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		study   string
		replays int
		widths  []int
	}{
		{"network", 5, []int{1, 8}},
		{"npgsql", 3, []int{1, 3, 8}},
	} {
		t.Run(tc.study, func(t *testing.T) {
			var first *aid.Report
			var firstJSON []byte
			for _, workers := range tc.widths {
				pipeline := aid.New(aid.WithCorpusSize(20, 20), aid.WithReplays(tc.replays), aid.WithWorkers(workers))
				rep, err := pipeline.Run(ctx, aid.FromStudy(aid.CaseStudyByName(tc.study)))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				j, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first, firstJSON = rep, j
					continue
				}
				if !reflect.DeepEqual(first.Result, rep.Result) {
					t.Errorf("workers=%d: discovery result differs from workers=%d", workers, tc.widths[0])
				}
				if !bytes.Equal(firstJSON, j) {
					t.Errorf("workers=%d: report differs from workers=%d", workers, tc.widths[0])
				}
			}
		})
	}
}

// TestPipelineObserverEventOrder checks the observer sees the typed
// event stream in stage order with consistent counts.
func TestPipelineObserverEventOrder(t *testing.T) {
	var events []aid.Event
	pipeline := aid.New(
		aid.WithCorpusSize(20, 20),
		aid.WithObserver(aid.ObserverFunc(func(e aid.Event) { events = append(events, e) })),
	)
	rep, err := pipeline.Run(context.Background(), aid.FromStudy(aid.CaseStudyByName("npgsql")))
	if err != nil {
		t.Fatal(err)
	}
	var rounds, confirms int
	var sawCollected, sawExtracted, sawRanked, sawDAG, sawDone bool
	for _, e := range events {
		switch ev := e.(type) {
		case aid.CollectProgress:
			if sawCollected {
				t.Error("CollectProgress after TracesCollected")
			}
		case aid.TracesCollected:
			sawCollected = true
			if ev.Successes != 20 || ev.Failures != 20 {
				t.Errorf("TracesCollected = %d/%d, want 20/20", ev.Successes, ev.Failures)
			}
		case aid.PredicatesExtracted:
			sawExtracted = true
			if !sawCollected {
				t.Error("PredicatesExtracted before TracesCollected")
			}
			if ev.Total != rep.TotalPredicates {
				t.Errorf("PredicatesExtracted.Total = %d, want %d", ev.Total, rep.TotalPredicates)
			}
		case aid.Ranked:
			sawRanked = true
			if ev.FullyDiscriminative != rep.Discriminative {
				t.Errorf("Ranked = %d, want %d", ev.FullyDiscriminative, rep.Discriminative)
			}
		case aid.DAGBuilt:
			sawDAG = true
			if ev.Nodes != rep.DAGNodes {
				t.Errorf("DAGBuilt.Nodes = %d, want %d", ev.Nodes, rep.DAGNodes)
			}
		case aid.RoundDone:
			rounds++
			if ev.Index != rounds {
				t.Errorf("RoundDone.Index = %d, want %d", ev.Index, rounds)
			}
			if ev.Batch <= 0 {
				t.Errorf("RoundDone.Index %d: Batch = %d, want a positive scheduler batch id", ev.Index, ev.Batch)
			}
		case aid.CauseConfirmed:
			confirms++
		case aid.DiscoveryDone:
			sawDone = true
			if ev.Interventions != rep.AIDInterventions {
				t.Errorf("DiscoveryDone.Interventions = %d, want %d", ev.Interventions, rep.AIDInterventions)
			}
		}
	}
	if !sawCollected || !sawExtracted || !sawRanked || !sawDAG || !sawDone {
		t.Errorf("missing stage events: collected=%v extracted=%v ranked=%v dag=%v done=%v",
			sawCollected, sawExtracted, sawRanked, sawDAG, sawDone)
	}
	if rounds != rep.AIDInterventions {
		t.Errorf("observed %d RoundDone events, report says %d interventions", rounds, rep.AIDInterventions)
	}
	if confirms != rep.CausalPathLen {
		t.Errorf("observed %d CauseConfirmed events, causal path has %d predicates", confirms, rep.CausalPathLen)
	}
}

// TestPipelineVariants checks the ablation options are accepted and
// that an unknown variant is rejected before the pipeline starts (no
// event emitted). casestudy's TestRunVariants compares their rounds.
func TestPipelineVariants(t *testing.T) {
	ctx := context.Background()
	study := aid.CaseStudyByName("network")
	for _, v := range []aid.Variant{aid.VariantAID, aid.VariantAIDP, aid.VariantAIDPB} {
		pipeline := aid.New(aid.WithCorpusSize(20, 20), aid.WithVariant(v))
		rep, err := pipeline.Run(ctx, aid.FromStudy(study))
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		if rep.RootCause == "" {
			t.Errorf("variant %s found no root cause", v)
		}
	}

	var events []aid.Event
	pipeline := aid.New(aid.WithCorpusSize(20, 20), aid.WithVariant("nope"),
		aid.WithObserver(aid.ObserverFunc(func(e aid.Event) { events = append(events, e) })))
	if _, err := pipeline.Run(ctx, aid.FromStudy(study)); err == nil {
		t.Error("unknown variant accepted")
	}
	if len(events) != 0 {
		t.Errorf("unknown variant emitted %d events before failing (first %T)", len(events), events[0])
	}
}
