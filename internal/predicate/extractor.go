package predicate

import (
	"fmt"
	"slices"

	"aid/internal/trace"
)

// Extractor runs the extraction engine for a fixed set of successful
// baseline executions against changing failure replays — one replay
// set per intervention round. The baselines are scanned once, into the
// sealed prefix of a corpus the extractor reuses; each round rewinds
// it to that prefix and scans only its replays. For B baselines and R
// replays per round it turns every round's O(B+R) scan into O(R).
//
// Every baseline must be a successful execution and every replay a
// failed one (the intervention-replay invariant: package inject marks
// all replays failed before extraction). Under that invariant the
// baseline rows never gain occurrences from replay-derived predicates.
type Extractor struct {
	en *engine
	// c holds the baseline rows (sealed) followed by the current
	// round's replay rows. Its predicate table is cumulative —
	// predicates observed in earlier rounds stay registered (with their
	// occurrences cleared), so re-manifesting ones skip ID interning
	// and metadata rebuilds entirely.
	c *Corpus
	// base holds the column headers as the baselines left them, one per
	// predicate registered by then: the state each round rewinds to.
	base []column
}

// NewExtractor scans the baseline executions once and caches every
// derived structure. Every baseline must be a successful execution —
// the shared-prefix contract only holds then (a failed baseline could
// gain occurrences from replay-derived predicates round after round) —
// so failed baselines are rejected. The cached state points into the
// baselines slice, which must not be mutated afterwards.
func NewExtractor(baselines []trace.Execution, cfg Config) (*Extractor, error) {
	succs := make([]*trace.Execution, 0, len(baselines))
	for i := range baselines {
		e := &baselines[i]
		if e.Failed() {
			return nil, fmt.Errorf("predicate: extractor baseline %q is a failed execution", e.ID)
		}
		succs = append(succs, e)
	}
	x := &Extractor{en: newEngine(succs, cfg), c: NewCorpus()}
	x.c.AddPred(FailurePredicate())
	for _, e := range succs {
		x.en.addRow(x.c, e)
	}
	x.c.sealed = len(succs)
	x.base = slices.Clone(x.c.cols)
	return x, nil
}

// ExtractReplays evaluates the predicate vocabulary over baselines ++
// replays, scanning only the replays. Rows [0, len(baselines)) are the
// baselines', the rest the replays'. For every predicate it retains,
//
//	Extract(&trace.Set{Executions: baselines ++ replays}, cfg)
//
// answers occurrence queries identically; ExtractReplays differs in
// two ways:
//
//   - The corpus is not compacted (no DropPure/DropUnobserved pass):
//     predicates from the baselines or from earlier rounds stay
//     registered even when unobserved this round, with empty columns.
//     HandleOf succeeds for more IDs than on a compacted corpus, but
//     Has/HasHandle/OccAt/Counts answer identically for every
//     predicate a compacted corpus retains.
//   - The returned corpus is reused across rounds, so after the first
//     round the per-round allocation cost is near zero. It is valid
//     only until the next ExtractReplays call on this extractor:
//     callers must finish reading before re-extracting and must not
//     retain it or slices read from it.
func (x *Extractor) ExtractReplays(replays []trace.Execution) *Corpus {
	x.rewind()
	for i := range replays {
		x.en.addRow(x.c, &replays[i])
	}
	return x.c
}

// rewind drops the replay rows: every column's occurrences truncate
// back to the baselines', while the backing arrays, the predicate
// table, and the ID-intern map keep their high-water capacity for the
// next round. All baseline rows are successes, so no failed row
// survives.
func (x *Extractor) rewind() {
	c := x.c
	n := c.sealed
	for i := range c.cols {
		col := &c.cols[i]
		b := column{last: -1}
		if i < len(x.base) {
			b = x.base[i]
		}
		col.occs = col.occs[:len(b.occs)]
		col.last = b.last
		col.failCnt = 0
		col.rows.ClearFrom(n)
	}
	c.execIDs = c.execIDs[:n]
	c.failedRows.ClearFrom(n)
	c.failOrd = c.failOrd[:n]
	c.nFail = 0
	c.partFail = c.partFail[:0]
	c.partSucc = c.partSucc[:n]
}
