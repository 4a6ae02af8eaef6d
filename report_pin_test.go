package aid_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aid"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/reports goldens from the current tree")

// TestCaseStudyReportGoldens pins the full JSON report of every case
// study, byte for byte, against goldens captured from the PR 9 tree.
// The memory-discipline work (overlay corpus reuse, scratch
// kernels) must be invisible in the output: any drift here means an
// optimization changed behavior, not just allocation counts.
//
// Settings mirror benchOpts (trimmed 30+30 corpus, 5 replays) so the
// pin exercises the same configuration the Figure 7 benchmarks and the
// allocs/op gate measure.
func TestCaseStudyReportGoldens(t *testing.T) {
	for _, s := range aid.CaseStudies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			pipeline := aid.New(aid.WithCorpusSize(30, 30), aid.WithReplays(5))
			rep, err := pipeline.Run(context.Background(), aid.FromStudy(s))
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "reports", s.Name+".json")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report for %s drifted from the pinned PR 9 baseline:\n got %d bytes\nwant %d bytes\nfirst divergence at byte %d",
					s.Name, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestDetachedReportStableAcrossRuns pins the aliasing contract: a
// report returned by Run shares no storage with any later run, so its
// bytes cannot change no matter how many runs follow on the same
// Pipeline. A slice carved from reused scratch (instead of owned by the
// report) shows up here as a mutated early report.
func TestDetachedReportStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run aliasing sweep")
	}
	ctx := context.Background()
	studies := aid.CaseStudies()
	p := aid.New(aid.WithCorpusSize(20, 20), aid.WithReplays(3))
	rep, err := p.Run(ctx, aid.FromStudy(studies[0]))
	if err != nil {
		t.Fatal(err)
	}
	before, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Follow with differently-shaped reports.
	for round := 0; round < 2; round++ {
		for _, s := range studies[1:] {
			if _, err := p.Run(ctx, aid.FromStudy(s)); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
	}
	after, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("detached report mutated by later runs (first diff at byte %d)", firstDiff(before, after))
	}
}
