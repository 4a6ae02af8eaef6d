package acdag

import (
	"fmt"
	"testing"

	"aid/internal/predicate"
	"aid/internal/trace"
)

// benchCorpus builds a corpus of n instantaneous predicates over f
// failed logs with jittered stamps.
func benchCorpus(n, f int) (*predicate.Corpus, []predicate.ID) {
	c := predicate.NewCorpus()
	c.AddPred(predicate.FailurePredicate())
	ids := make([]predicate.ID, n)
	for i := 0; i < n; i++ {
		ids[i] = predicate.ID(fmt.Sprintf("p%03d", i))
		c.AddPred(predicate.Predicate{
			ID: ids[i], Kind: predicate.KindWrongReturn, Stamp: predicate.ByEnd,
			Repair: predicate.Intervention{Kind: predicate.IvOverrideReturn, Safe: true},
		})
	}
	for l := 0; l < f; l++ {
		occ := map[predicate.ID]predicate.Occurrence{
			predicate.FailureID: {Start: 100000, End: 100001, Thread: predicate.NoThread},
		}
		for i, id := range ids {
			// Stable order with per-log jitter that never crosses
			// neighbours: a long chain with occasional incomparabilities.
			base := trace.Time(i * 10)
			jit := trace.Time((l * (i + 3)) % 4)
			occ[id] = predicate.Occurrence{Start: base + jit, End: base + jit + 2, Thread: 0}
		}
		c.AddLog(fmt.Sprintf("f%d", l), true, occ)
	}
	c.AddLog("s", false, map[predicate.ID]predicate.Occurrence{})
	return c, ids
}

// BenchmarkBuild measures AC-DAG construction (pairwise precedence over
// all failed logs plus closure) at Fig. 7 scale.
func BenchmarkBuild(b *testing.B) {
	c, ids := benchCorpus(90, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := Build(c, ids, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() != 91 {
			b.Fatalf("nodes = %d", d.Len())
		}
	}
}

// BenchmarkLevels measures topological-level computation, the inner
// loop of branch pruning.
func BenchmarkLevels(b *testing.B) {
	c, ids := benchCorpus(90, 10)
	d, _, err := Build(c, ids, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if levels := d.LevelsIndex(nil); len(levels) == 0 {
			b.Fatal("no levels")
		}
	}
}
