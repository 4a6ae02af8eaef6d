// Package casestudy reproduces the paper's six real-world case studies
// (§7.1 / Fig. 7) on the simulator substrate.
//
// Each study models the same bug class as the original application —
// Npgsql's data race on a pool index (GitHub #2485), Kafka's
// use-after-free of a disposed consumer (#279), a Cosmos DB
// application's cache-expiry timing bug (#713), and the three
// proprietary Microsoft applications (Network: random-number collision;
// BuildAndTest: order violation; HealthTelemetry: race condition) — as
// a small concurrent program that fails intermittently under the seeded
// scheduler. The runner executes the full AID pipeline: trace
// collection, statistical debugging, AC-DAG construction,
// causality-guided interventions, and the TAGT baseline.
package casestudy

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"aid/internal/acdag"
	"aid/internal/core"
	"aid/internal/explain"
	"aid/internal/grouptest"
	"aid/internal/inject"
	"aid/internal/par"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// Study is one case-study application.
type Study struct {
	// Name identifies the study ("npgsql", "kafka", ...).
	Name string
	// Issue references the public bug report ("npgsql#2485") or "N/A".
	Issue string
	// Description summarizes the bug.
	Description string
	// Program is the simulated application.
	Program *sim.Program
	// FailureSig is the expected failure signature for grouping.
	FailureSig string
	// WantRootPrefix is the expected root-cause predicate ID prefix
	// ("race:", "slow:", ...), used by tests and reports.
	WantRootPrefix string
	// MaxSteps bounds each execution (0 = sim default).
	MaxSteps int
}

// sideEffectFree builds the predicate.Config safety oracle from the
// program's annotations.
func (s *Study) sideEffectFree(method string) bool {
	f, ok := s.Program.Funcs[method]
	return ok && f.SideEffectFree
}

// Config returns the extraction configuration for this study.
func (s *Study) Config() predicate.Config {
	return predicate.Config{SideEffectFree: s.sideEffectFree, DurationMargin: 4}
}

// RunConfig controls the pipeline.
type RunConfig struct {
	// Successes and Failures are the target corpus sizes (paper: 50/50).
	Successes, Failures int
	// SeedCap bounds how many seeds to try while collecting.
	SeedCap int
	// ReplaySeeds is how many failing seeds each intervention replays.
	ReplaySeeds int
	// Seed drives the algorithms' tie-breaking.
	Seed int64
	// Compounds, when positive, lets statistical debugging materialize
	// up to this many conjunction predicates (§3.2's modeling of
	// nondeterministic root causes: neither conjunct is fully
	// discriminative alone, but the conjunction is).
	Compounds int
	// Variant selects the AID ablation: "aid" (default), "aid-p" (no
	// predicate pruning) or "aid-p-b" (no predicate or branch pruning).
	Variant string
	// Workers is the execution-pool width for trace collection and
	// intervention replay; <= 0 means GOMAXPROCS. Any width produces
	// bit-identical reports (see internal/par's determinism contract).
	Workers int
	// OnCollect, when non-nil, is invoked after every collection chunk
	// with the running totals (observer hook; must not mutate state).
	OnCollect func(succ, fail int, seedsSwept int64)
	// OnRound and OnConfirm are forwarded to core.Options (observer
	// hooks for the intervention phase); OnRound also receives the
	// scheduler's provenance metadata for the round.
	OnRound   func(r core.Round, m core.RoundMeta)
	OnConfirm func(id predicate.ID)
}

// Options resolves the variant selection into core.Options, carrying
// the observer hooks along.
func (rc RunConfig) Options() (core.Options, error) {
	var opts core.Options
	switch rc.Variant {
	case "", "aid":
		opts = core.AIDOptions(rc.Seed)
	case "aid-p":
		opts = core.AIDPOptions(rc.Seed)
	case "aid-p-b":
		opts = core.AIDPBOptions(rc.Seed)
	default:
		return core.Options{}, fmt.Errorf("casestudy: unknown variant %q", rc.Variant)
	}
	opts.OnRound = rc.OnRound
	opts.OnConfirm = rc.OnConfirm
	return opts, nil
}

// DefaultRunConfig mirrors the paper's 50+50 corpus with modest replay.
func DefaultRunConfig() RunConfig {
	return RunConfig{Successes: 50, Failures: 50, SeedCap: 4000, ReplaySeeds: 5, Seed: 1}
}

// Report is one row of Fig. 7 plus the explanation.
type Report struct {
	Study       string
	Issue       string
	Description string

	// TotalPredicates counts everything extraction produced.
	TotalPredicates int
	// Discriminative is Fig. 7 column 3: fully-discriminative
	// predicates found by SD.
	Discriminative int
	// DAGNodes counts safely-intervenable candidates (plus F).
	DAGNodes int
	// NoPathToF counts candidates discarded for lacking an AC-DAG path
	// to the failure (the Kafka discard).
	NoPathToF int
	// CausalPathLen is Fig. 7 column 4 (predicates in the causal path,
	// excluding F).
	CausalPathLen int
	// AIDInterventions is Fig. 7 column 5.
	AIDInterventions int
	// TAGTInterventions is the measured TAGT cost on the same pool.
	TAGTInterventions int
	// TAGTWorstCase is the paper's reported D·⌈log₂N⌉ worst case
	// (Fig. 7 column 6).
	TAGTWorstCase int

	// Path is the discovered causal path ending at F.
	Path []predicate.ID
	// Explanation is the human-readable causal chain.
	Explanation []string
	// Narrative is the full §7.1-style account (package explain).
	Narrative string
	// AID is the full discovery result.
	AID *core.Result
}

// collectChunk sizes the seed chunks of a parallel sweep, per worker.
// Larger chunks amortize pool overhead; smaller chunks waste fewer
// executions past the quota cut-off.
const collectChunk = 16

// Collect runs the program over increasing seeds until the target
// numbers of successes and failures are gathered; it returns the trace
// corpus and the failing seeds.
//
// Seeds are swept in chunks across rc.Workers pool workers; chunk
// results are consumed in seed order with the same quota logic as a
// sequential sweep, so the collected corpus is bit-identical for any
// worker count. The sweep cuts off at the first chunk that fills both
// quotas (at most one chunk of executions is wasted).
//
// An empty Study.FailureSig accepts failures of any signature (used by
// ad-hoc programs behind the public facade; the built-in studies all
// pin a signature). Cancelling ctx aborts the sweep within one
// task-drain with ctx's error.
func Collect(ctx context.Context, s *Study, rc RunConfig) (*trace.Set, []int64, error) {
	set := &trace.Set{}
	var failSeeds []int64
	succ, fail := 0, 0
	chunk := int64(par.Workers(rc.Workers) * collectChunk)
	var seeds []int64
	for base := int64(1); base <= int64(rc.SeedCap); base += chunk {
		if succ >= rc.Successes && fail >= rc.Failures {
			break
		}
		hi := base + chunk - 1
		if hi > int64(rc.SeedCap) {
			hi = int64(rc.SeedCap)
		}
		seeds = seeds[:0]
		for seed := base; seed <= hi; seed++ {
			seeds = append(seeds, seed)
		}
		execs, err := sim.RunBatch(ctx, s.Program, seeds, sim.BatchOptions{
			Run:     sim.RunOptions{MaxSteps: s.MaxSteps},
			Workers: rc.Workers,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("casestudy %s: %w", s.Name, err)
		}
		for i, exec := range execs {
			if succ >= rc.Successes && fail >= rc.Failures {
				break
			}
			if exec.Failed() {
				if (s.FailureSig != "" && exec.FailureSig != s.FailureSig) || fail >= rc.Failures {
					continue
				}
				fail++
				failSeeds = append(failSeeds, seeds[i])
			} else {
				if succ >= rc.Successes {
					continue
				}
				succ++
			}
			set.Executions = append(set.Executions, exec)
		}
		if rc.OnCollect != nil {
			rc.OnCollect(succ, fail, hi)
		}
	}
	if succ < rc.Successes || fail < rc.Failures {
		return nil, nil, fmt.Errorf("casestudy %s: collected %d successes / %d failures within %d seeds (want %d/%d)",
			s.Name, succ, fail, rc.SeedCap, rc.Successes, rc.Failures)
	}
	return set, failSeeds, nil
}

// Run executes the full pipeline for one study. Cancelling ctx aborts
// collection and intervention sweeps promptly with ctx's error.
func Run(ctx context.Context, s *Study, rc RunConfig) (*Report, error) {
	set, failSeeds, err := Collect(ctx, s, rc)
	if err != nil {
		return nil, err
	}
	cfg := s.Config()
	corpus := predicate.Extract(set, cfg)
	if rc.Compounds > 0 {
		statdebug.GenerateCompounds(corpus, rc.Compounds)
	}
	fully := statdebug.FullyDiscriminative(corpus)
	dag, _, err := acdag.Build(corpus, fully, acdag.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("casestudy %s: %w", s.Name, err)
	}

	replay := failSeeds
	if rc.ReplaySeeds > 0 && len(replay) > rc.ReplaySeeds {
		replay = replay[:rc.ReplaySeeds]
	}
	exec := &inject.Executor{
		Prog:       s.Program,
		Corpus:     corpus,
		Baselines:  baselineSuccesses(set),
		Seeds:      replay,
		Cfg:        cfg,
		FailureSig: s.FailureSig,
		MaxSteps:   s.MaxSteps,
		Workers:    rc.Workers,
	}

	opts, err := rc.Options()
	if err != nil {
		return nil, err
	}
	aidRes, err := core.Discover(ctx, dag, exec, opts)
	if err != nil {
		return nil, fmt.Errorf("casestudy %s: AID: %w", s.Name, err)
	}

	// TAGT runs on the same safely-intervenable candidate pool with the
	// same re-execution oracle, but no DAG knowledge. It needs only each
	// group's verdict, so it asks Executor.Stops, which ends a test at
	// its first failing replay and skips observation extraction.
	var pool []predicate.ID
	noPath := 0
	for _, id := range dag.Nodes() {
		if id == predicate.FailureID {
			continue
		}
		pool = append(pool, id)
		if !dag.Precedes(id, predicate.FailureID) {
			noPath++
		}
	}
	tagtRes, err := grouptest.Adaptive(pool, func(group []predicate.ID) (bool, error) {
		return exec.Stops(ctx, group)
	}, rc.Seed)
	if err != nil {
		return nil, fmt.Errorf("casestudy %s: TAGT: %w", s.Name, err)
	}

	pathLen := len(aidRes.Path) - 1 // excluding F
	report := &Report{
		Study:             s.Name,
		Issue:             s.Issue,
		Description:       s.Description,
		TotalPredicates:   len(corpus.Preds),
		Discriminative:    len(fully),
		DAGNodes:          dag.Len(),
		NoPathToF:         noPath,
		CausalPathLen:     pathLen,
		AIDInterventions:  aidRes.Interventions(),
		TAGTInterventions: tagtRes.Tests,
		TAGTWorstCase:     grouptest.UpperBound(len(pool), pathLen),
		Path:              aidRes.Path,
		AID:               aidRes,
	}
	for i, id := range aidRes.Path {
		desc := string(id)
		if p := corpus.Pred(id); p != nil {
			desc = p.String()
		}
		report.Explanation = append(report.Explanation, fmt.Sprintf("(%d) %s", i+1, desc))
	}
	report.Narrative = explain.Build(corpus, aidRes).String()
	return report, nil
}

func baselineSuccesses(set *trace.Set) []trace.Execution {
	var out []trace.Execution
	for i := range set.Executions {
		if !set.Executions[i].Failed() {
			out = append(out, set.Executions[i])
		}
	}
	return out
}

// FormatFigure7 renders reports as the paper's Fig. 7 table.
func FormatFigure7(reports []*Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-14s %12s %12s %8s %8s %10s\n",
		"Application", "Issue", "#Discrim(SD)", "#CausalPath", "AID", "TAGT", "TAGT-bound")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-16s %-14s %12d %12d %8d %8d %10d\n",
			r.Study, r.Issue, r.Discriminative, r.CausalPathLen,
			r.AIDInterventions, r.TAGTInterventions, r.TAGTWorstCase)
	}
	return b.String()
}

// allMemo builds the six studies once per process. Safe to share: a
// Study is read-only after construction and sim.Program is immutable
// from its first run (its compiled form is cached atomically), which
// concurrent in-run replay workers already rely on. Sharing also means
// every consumer — daemon sessions included — reuses one compiled
// program per study instead of recompiling per resolution.
var allMemo struct {
	once    sync.Once
	studies []*Study
	byName  map[string]*Study
}

func buildAll() {
	allMemo.studies = []*Study{
		Npgsql(), Kafka(), CosmosDB(), Network(), BuildAndTest(), HealthTelemetry(),
	}
	allMemo.byName = make(map[string]*Study, len(allMemo.studies))
	for _, s := range allMemo.studies {
		allMemo.byName[s.Name] = s
	}
}

// All returns the six case studies in the paper's order. The studies
// are shared, memoized instances; the slice itself is a fresh copy the
// caller may reorder.
func All() []*Study {
	allMemo.once.Do(buildAll)
	out := make([]*Study, len(allMemo.studies))
	copy(out, allMemo.studies)
	return out
}

// ByName returns the named study or nil.
func ByName(name string) *Study {
	allMemo.once.Do(buildAll)
	return allMemo.byName[name]
}

// failureRate estimates the study's intermittent failure rate over n
// seeds (diagnostics and tests), sweeping the seeds across the pool.
func failureRate(s *Study, n int) float64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	execs, err := sim.RunBatch(context.Background(), s.Program, seeds, sim.BatchOptions{
		Run: sim.RunOptions{MaxSteps: s.MaxSteps},
	})
	if err != nil {
		panic(err)
	}
	fails := 0
	for _, exec := range execs {
		if exec.Failed() && exec.FailureSig == s.FailureSig {
			fails++
		}
	}
	return float64(fails) / math.Max(1, float64(n))
}
