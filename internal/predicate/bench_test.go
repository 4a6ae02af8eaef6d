package predicate

import (
	"fmt"
	"testing"

	"aid/internal/trace"
)

// benchSet builds a corpus of executions with method spans, accesses
// and mixed outcomes that exercises every extractor.
func benchSet(execs, callsPerExec int) *trace.Set {
	s := &trace.Set{}
	for e := 0; e < execs; e++ {
		exec := trace.Execution{
			ID:   fmt.Sprintf("e%03d", e),
			Seed: int64(e),
		}
		failed := e%3 == 0
		if failed {
			exec.Outcome = trace.Failure
			exec.FailureSig = "crash"
		}
		t := trace.Time(0)
		for c := 0; c < callsPerExec; c++ {
			dur := trace.Time(10)
			if failed && c%4 == 0 {
				dur = 60 // slow in failures
			}
			call := trace.MethodCall{
				Method: fmt.Sprintf("M%02d", c%10),
				Thread: trace.ThreadID(c % 3),
				Start:  t,
				End:    t + dur,
				Return: trace.IntValue(int64(c % 10)),
				Accesses: []trace.Access{
					{Object: trace.ObjectID(fmt.Sprintf("obj%d", c%5)), Kind: trace.Read, At: t + 1},
					{Object: trace.ObjectID(fmt.Sprintf("obj%d", c%5)), Kind: trace.Write, At: t + dur - 1},
				},
			}
			if failed && c == callsPerExec-1 {
				call.Exception = "Boom"
			}
			exec.Calls = append(exec.Calls, call)
			t += dur / 2 // overlapping spans stress the race detector
		}
		s.Add(exec)
	}
	return s
}

// BenchmarkExtract measures full predicate extraction over a mixed
// corpus (the SD phase's dominant cost).
func BenchmarkExtract(b *testing.B) {
	set := benchSet(40, 30)
	cfg := Config{DurationMargin: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Extract(set, cfg)
		if len(c.Preds) == 0 {
			b.Fatal("no predicates extracted")
		}
	}
}

// BenchmarkExtractRaces measures extraction over overlap-heavy
// traces, where the race detector dominates.
func BenchmarkExtractRaces(b *testing.B) {
	set := benchSet(20, 60)
	cfg := Config{DurationMargin: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := Extract(set, cfg); len(c.Preds) == 0 {
			b.Fatal("no predicates extracted")
		}
	}
}

// BenchmarkExtractorReplayRounds measures the corpus-reusing
// steady-state path: after the first round the per-round allocation
// count should be near zero.
func BenchmarkExtractorReplayRounds(b *testing.B) {
	baselines, replays := splitBench(40, 30)
	x, err := NewExtractor(baselines, Config{DurationMargin: 4})
	if err != nil {
		b.Fatal(err)
	}
	x.ExtractReplays(replays) // warm the replay corpus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.ExtractReplays(replays)
		if len(c.Preds) == 0 {
			b.Fatal("no predicates extracted")
		}
	}
}
