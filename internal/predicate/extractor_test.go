package predicate

import (
	"reflect"
	"testing"

	"aid/internal/trace"
)

// splitBench partitions a benchSet corpus into success baselines and
// failed replays.
func splitBench(execs, calls int) (baselines, replays []trace.Execution) {
	for _, e := range benchSet(execs, calls).Executions {
		if e.Failed() {
			replays = append(replays, e)
		} else {
			baselines = append(baselines, e)
		}
	}
	return baselines, replays
}

// oneShot is the reference for the Extractor: one-shot Extract over
// baselines ++ replays.
func oneShot(baselines, replays []trace.Execution, cfg Config) *Corpus {
	merged := &trace.Set{}
	merged.Executions = append(merged.Executions, baselines...)
	merged.Executions = append(merged.Executions, replays...)
	return Extract(merged, cfg)
}

// observed returns c's predicates that occur in some row, in
// registration order: the table DropUnobserved would keep.
func observed(c *Corpus) []Predicate {
	out := make([]Predicate, 0, len(c.Preds))
	for h := range c.Preds {
		if occ, _ := c.CountsAt(Handle(h)); occ > 0 {
			out = append(out, c.Preds[h])
		}
	}
	return out
}

// TestExtractorMatchesOneShot asserts the cached path's contract: for
// success-only baselines and failed replays, ExtractReplays yields
// exactly the predicates (in the same order) and rows a one-shot
// Extract over the concatenated set would.
func TestExtractorMatchesOneShot(t *testing.T) {
	baselines, replays := splitBench(30, 24)
	cfg := Config{DurationMargin: 4}
	want := oneShot(baselines, replays, cfg)

	x, err := NewExtractor(baselines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ { // rounds must not contaminate each other
		got := x.ExtractReplays(replays)
		if !reflect.DeepEqual(want.Preds, observed(got)) {
			t.Fatalf("round %d: predicate table differs from one-shot extraction", round)
		}
		if want.NumLogs() != got.NumLogs() {
			t.Fatalf("round %d: %d logs, want %d", round, got.NumLogs(), want.NumLogs())
		}
		for i := 0; i < want.NumLogs(); i++ {
			if want.Log(i).ExecID() != got.Log(i).ExecID() ||
				want.Log(i).Failed() != got.Log(i).Failed() ||
				!reflect.DeepEqual(want.Log(i).OccMap(), got.Log(i).OccMap()) {
				t.Fatalf("round %d: log %d (%s) differs from one-shot extraction",
					round, i, want.Log(i).ExecID())
			}
		}
	}
}

// TestExtractorSubsetReplays checks replay sets different from the
// baseline-building corpus (each round replays under a new plan, so the
// traces differ round to round). The sets grow by prefix, so the
// replay corpus's cumulative predicate table registers in one-shot order.
func TestExtractorSubsetReplays(t *testing.T) {
	baselines, replays := splitBench(30, 24)
	cfg := Config{DurationMargin: 4}
	x, err := NewExtractor(baselines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= len(replays); cut++ {
		sub := replays[:cut]
		want := oneShot(baselines, sub, cfg)
		got := x.ExtractReplays(sub)
		if !reflect.DeepEqual(want.Preds, observed(got)) {
			t.Fatalf("cut %d: predicate table differs from one-shot extraction", cut)
		}
		for i := 0; i < want.NumLogs(); i++ {
			if !reflect.DeepEqual(want.Log(i).OccMap(), got.Log(i).OccMap()) {
				t.Fatalf("cut %d: log %d differs", cut, i)
			}
		}
	}
}

// TestExtractReplaysMatchesExtract pins the reused replay corpus's contract:
// across rounds with varying replay subsets (exercising the epoch
// reset), ExtractReplays must answer occurrence queries identically to
// one-shot Extract for every predicate Extract retains — extra
// zero-occurrence predicates in the replay corpus are the only permitted
// difference.
func TestExtractReplaysMatchesExtract(t *testing.T) {
	baselines, replays := splitBench(30, 24)
	cfg := Config{DurationMargin: 4}
	x, err := NewExtractor(baselines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Vary the replay subset round to round so the reset has real work:
	// shrink, grow, full, single.
	cuts := []int{len(replays), 3, len(replays) / 2, len(replays), 1, len(replays)}
	for round, cut := range cuts {
		sub := replays[:cut]
		want := oneShot(baselines, sub, cfg)
		got := x.ExtractReplays(sub)
		if got.NumLogs() != want.NumLogs() {
			t.Fatalf("round %d: %d logs, want %d", round, got.NumLogs(), want.NumLogs())
		}
		for i := 0; i < want.NumLogs(); i++ {
			wl, gl := want.Log(i), got.Log(i)
			if wl.ExecID() != gl.ExecID() || wl.Failed() != gl.Failed() {
				t.Fatalf("round %d: log %d identity differs", round, i)
			}
		}
		// Every retained predicate of the compacted corpus must answer
		// identically in the replay corpus.
		for _, p := range want.Preds {
			gh, ok := got.HandleOf(p.ID)
			if !ok {
				t.Fatalf("round %d: replay corpus is missing predicate %q", round, p.ID)
			}
			wo, wf, _ := want.Counts(p.ID)
			goc, gif := got.CountsAt(gh)
			if wo != goc || wf != gif {
				t.Fatalf("round %d: %q counts (%d,%d), want (%d,%d)", round, p.ID, goc, gif, wo, wf)
			}
			for i := 0; i < want.NumLogs(); i++ {
				wocc, wok := want.Log(i).Occ(p.ID)
				gocc, gok := got.OccAt(i, gh)
				if wok != gok || wocc != gocc {
					t.Fatalf("round %d: %q occurrence at row %d = (%v,%v), want (%v,%v)",
						round, p.ID, i, gocc, gok, wocc, wok)
				}
			}
		}
		// And every extra replay-corpus predicate must be unobserved — a
		// leftover from an earlier round with its occurrences cleared.
		for h := range got.Preds {
			id := got.Preds[h].ID
			if _, ok := want.HandleOf(id); ok {
				continue
			}
			if occ, inF := got.CountsAt(Handle(h)); occ != 0 || inF != 0 {
				t.Fatalf("round %d: replay-corpus-only predicate %q has occurrences (%d,%d)", round, id, occ, inF)
			}
		}
	}
}

// TestExtractReplaysSteadyStateAllocs pins the point of the reused replay corpus:
// warm rounds with the same replay shape must allocate near zero —
// the budget covers only the compound-materialization clone and map
// internals, not per-row or per-predicate work.
func TestExtractReplaysSteadyStateAllocs(t *testing.T) {
	baselines, replays := splitBench(30, 24)
	x, err := NewExtractor(baselines, Config{DurationMargin: 4})
	if err != nil {
		t.Fatal(err)
	}
	x.ExtractReplays(replays) // warm
	avg := testing.AllocsPerRun(20, func() {
		x.ExtractReplays(replays)
	})
	if avg > 5 {
		t.Fatalf("warm ExtractReplays allocates %.1f times per round, want <= 5", avg)
	}
}
