package roworacle

import (
	"fmt"
	"runtime"
	"time"

	"aid/internal/acdag"
	"aid/internal/predicate"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// CorpusScalingResult records one corpus-scaling measurement: the same
// synthetic predicate corpus ranked and AC-DAG-built through the
// columnar store and through this package's row-oriented oracle, with
// both outputs cross-checked equal. It is the evidence behind the
// "production-rate corpora" claim: scores are maintained counters and
// the counterfactual filter is O(1) per candidate, so rank+build cost
// stops scaling with corpus size.
type CorpusScalingResult struct {
	// Executions and Predicates are the corpus dimensions.
	Executions int `json:"executions"`
	Predicates int `json:"predicates"`
	// IngestNs is the wall-clock of streaming the corpus into the
	// columnar store row by row (scores maintained as it lands).
	IngestNs int64 `json:"ingest_ns"`
	// ColumnarNs and RowNs time rank (Scores + FullyDiscriminative) +
	// AC-DAG Build on each path.
	ColumnarNs int64 `json:"columnar_ns"`
	RowNs      int64 `json:"row_ns"`
	// ColumnarAllocs and ColumnarBytes are heap-allocation deltas
	// (runtime.MemStats) across the columnar rank+build phase.
	ColumnarAllocs int64 `json:"columnar_allocs"`
	ColumnarBytes  int64 `json:"columnar_bytes"`
	// Speedup is RowNs / ColumnarNs.
	Speedup float64 `json:"speedup"`
	// FullyDiscriminative and DAGNodes sanity-check the workload shape
	// (and are asserted identical across the two paths).
	FullyDiscriminative int `json:"fully_discriminative"`
	DAGNodes            int `json:"dag_nodes"`
}

// scalingLCG is a tiny deterministic generator so the workload is
// byte-stable across runs and architectures.
type scalingLCG uint64

func (g *scalingLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 11
}

// RunCorpusScaling generates a synthetic corpus of the given dimensions
// — a causal chain of 24 fully-discriminative predicates over the
// failed rows plus noise predicates occurring in ~1.5% of rows, mixed
// durational and instantaneous kinds — ingests it into both corpus
// representations, and times rank+build on each. The two paths'
// outputs are verified identical before returning.
func RunCorpusScaling(execs, preds int, seed int64) (*CorpusScalingResult, error) {
	const causal = 24
	if preds < causal+2 || execs < 4 {
		return nil, fmt.Errorf("roworacle: corpus scaling needs >= %d predicates and >= 4 executions", causal+2)
	}
	table := make([]predicate.Predicate, 0, preds+1)
	table = append(table, predicate.FailurePredicate())
	for i := 0; i < preds; i++ {
		p := predicate.Predicate{
			ID:     predicate.ID(fmt.Sprintf("p%05d", i)),
			Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
		}
		switch i % 3 {
		case 0:
			p.Kind, p.Stamp = predicate.KindWrongReturn, predicate.ByEnd
		case 1:
			p.Kind, p.Stamp = predicate.KindDataRace, predicate.ByStart
		default:
			p.Kind, p.Stamp = predicate.KindTooSlow, predicate.ByEnd // durational
		}
		table = append(table, p)
	}

	col := predicate.NewCorpus()
	row := NewCorpus()
	for _, p := range table {
		col.AddPred(p)
		row.AddPred(p)
	}

	// Generate every row's occurrence map once; stream it into the
	// columnar store (timed: the production ingest path) and hand the
	// same map to the row corpus (its representation IS the map).
	g := scalingLCG(seed)
	var ingestNs int64
	for r := 0; r < execs; r++ {
		failed := r%2 == 1
		occ := make(map[predicate.ID]predicate.Occurrence)
		if failed {
			occ[predicate.FailureID] = predicate.Occurrence{Start: 100000, End: 100001, Thread: predicate.NoThread}
			// The causal chain occurs in every failed row, stamped in
			// chain order with per-row jitter that never crosses links.
			for k := 0; k < causal; k++ {
				base := predicate.Occurrence{
					Start:  trace.Time(k*10) + trace.Time(g.next()%3),
					Thread: 0,
				}
				base.End = base.Start + 2
				occ[table[1+k].ID] = base
			}
		}
		// Noise predicates occur in ~1.5% of rows regardless of outcome.
		for i := causal; i < preds; i++ {
			if g.next()%67 == 0 {
				start := trace.Time(g.next() % 5000)
				occ[table[1+i].ID] = predicate.Occurrence{
					Start:  start,
					End:    start + trace.Time(1+g.next()%40),
					Thread: predicate.NoThread,
				}
			}
		}
		id := fmt.Sprintf("e%06d", r)
		t0 := time.Now()
		col.AddLog(id, failed, occ)
		ingestNs += time.Since(t0).Nanoseconds()
		row.AddLog(id, failed, occ)
	}

	// Columnar rank+build, with the allocation profile of the phase.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	colScores := statdebug.Scores(col)
	colFully := statdebug.FullyDiscriminative(col)
	colDAG, _, err := acdag.Build(col, colFully, acdag.BuildOptions{})
	colNs := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("roworacle: corpus scaling: columnar build: %w", err)
	}

	// Row-oracle rank+build over the identical corpus.
	t0 = time.Now()
	rowScores := Scores(row)
	rowFully := FullyDiscriminative(row)
	rowDAG, _, err := Build(row, rowFully, acdag.BuildOptions{})
	rowNs := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("roworacle: corpus scaling: row build: %w", err)
	}

	// The refactor's contract: same answers from both layouts.
	if len(colScores) != len(rowScores) {
		return nil, fmt.Errorf("roworacle: corpus scaling: score count diverges (%d vs %d)", len(colScores), len(rowScores))
	}
	for i := range colScores {
		if colScores[i] != rowScores[i] {
			return nil, fmt.Errorf("roworacle: corpus scaling: score %d diverges (%+v vs %+v)", i, colScores[i], rowScores[i])
		}
	}
	if len(colFully) != len(rowFully) {
		return nil, fmt.Errorf("roworacle: corpus scaling: fully-discriminative sets diverge")
	}
	for i := range colFully {
		if colFully[i] != rowFully[i] {
			return nil, fmt.Errorf("roworacle: corpus scaling: fully-discriminative sets diverge at %d", i)
		}
	}
	if colDAG.Len() != rowDAG.Len() || len(colDAG.ReductionEdges()) != len(rowDAG.ReductionEdges()) {
		return nil, fmt.Errorf("roworacle: corpus scaling: DAGs diverge (%d/%d nodes)", colDAG.Len(), rowDAG.Len())
	}

	res := &CorpusScalingResult{
		Executions:          execs,
		Predicates:          preds,
		IngestNs:            ingestNs,
		ColumnarNs:          colNs,
		RowNs:               rowNs,
		ColumnarAllocs:      int64(after.Mallocs - before.Mallocs),
		ColumnarBytes:       int64(after.TotalAlloc - before.TotalAlloc),
		FullyDiscriminative: len(colFully),
		DAGNodes:            colDAG.Len(),
	}
	if colNs > 0 {
		res.Speedup = float64(rowNs) / float64(colNs)
	}
	return res, nil
}
