package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"aid"
)

// casestudy-cold: a closed loop with one client cycling the six Fig. 7
// studies at the paper's 50+50 corpus. Every session is a fresh
// pipeline with its own algorithm seed, no shared scheduler, no cache.

// caseCycle is the order sessions cycle through. healthtelemetry, the
// study where replays and TAGT cost most, runs twice per cycle: with
// each study once, three fast studies (about 6 ms) and three slow ones
// (17 ms and up) split the sessions exactly in half, and the median
// would jump across that gap from run to run.
var caseCycle = []string{"npgsql", "kafka", "cosmosdb", "healthtelemetry", "network", "buildandtest", "healthtelemetry"}

// caseCountWindow is how many leading sessions (eight full cycles)
// feed the count metrics, so one seed always yields the same counts.
var caseCountWindow = 8 * len(caseCycle)

// caseSetup builds the case studies, checks the seed-1, 30+30 reports
// byte for byte against testdata/reports, and returns each study's
// known root cause.
func caseSetup(ctx context.Context) (map[string]string, error) {
	cause := map[string]string{}
	for _, s := range aid.CaseStudies() {
		rep, err := aid.New(aid.WithCorpusSize(30, 30), aid.WithReplays(5)).Run(ctx, aid.FromStudy(s))
		if err != nil {
			return nil, fmt.Errorf("golden run %s: %w", s.Name, err)
		}
		got, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		want, err := os.ReadFile(filepath.Join("testdata", "reports", s.Name+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden report: %w", err)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("golden check: %s report differs from testdata/reports/%s.json", s.Name, s.Name)
		}
		var golden struct {
			RootCause string `json:"rootCause"`
		}
		if err := json.Unmarshal(want, &golden); err != nil {
			return nil, fmt.Errorf("golden report %s: %w", s.Name, err)
		}
		cause[s.Name] = golden.RootCause
	}
	return cause, nil
}

func runCaseStudyCold(ctx context.Context, cfg config, rec *recorder) (*outcome, error) {
	setups, cause, err := timedSetups(func() (map[string]string, error) { return caseSetup(ctx) }, func(map[string]string) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, countWindow: caseCountWindow}
	rng := rand.New(rand.NewSource(cfg.seed))
	acc := layerAcc{}
	var tracedLat, plainLat []float64

	mw := startMemWatch()
	start := time.Now()
	out.start = start
	for i := 0; time.Since(start) < cfg.duration; i++ {
		study := aid.CaseStudyByName(caseCycle[i%len(caseCycle)])
		seed := 1 + rng.Int63n(1<<31)
		// Traced runs alternate whole cycles, so both halves cover every
		// study and the overhead comparison is like for like.
		traced := cfg.trace && (i/len(caseCycle))%2 == 1
		opts := []aid.Option{aid.WithSeed(seed), aid.WithWorkers(cfg.workers)}
		obs := &stampObserver{}
		if traced {
			opts = append(opts, aid.WithObserver(obs))
		}
		t0 := time.Now()
		rep, err := aid.New(opts...).Run(ctx, aid.FromStudy(study))
		t1 := time.Now()
		s := sessionRec{seq: i, latency: t1.Sub(t0), end: t1, traced: traced}
		switch {
		case err != nil:
			s.errored = true
			out.mismatches = append(out.mismatches, fmt.Sprintf("session %d %s seed %d: %v", i, study.Name, seed, err))
		case rep.RootCause != cause[study.Name]:
			s.wrong = true
			out.mismatches = append(out.mismatches, fmt.Sprintf("session %d %s seed %d: root cause %q, want %q",
				i, study.Name, seed, rep.RootCause, cause[study.Name]))
		default:
			s.aid, s.tagt = rep.AIDInterventions, rep.TAGTInterventions
		}
		out.samples = append(out.samples, s)
		if !cfg.trace || !s.ok() {
			continue
		}
		if !traced {
			plainLat = append(plainLat, ms(s.latency))
			continue
		}
		tracedLat = append(tracedLat, ms(s.latency))
		// explain.ms: time Pipeline.Explain on the same result. It needs
		// the run's corpus, which Run does not return, so re-derive it
		// (deterministic, and outside the session's span).
		p := aid.New(opts[:2]...)
		tr, err := p.Collect(ctx, aid.FromStudy(study))
		if err != nil {
			return nil, err
		}
		corpus := p.Extract(tr)
		e0 := time.Now()
		narrative := p.Explain(corpus, rep.Result)
		explainDur := time.Since(e0)
		if narrative != rep.Narrative {
			out.mismatches = append(out.mismatches, fmt.Sprintf("session %d %s: Explain differs from the report's narrative", i, study.Name))
		}
		root := rec.add(i, 0, "session", t0, t1)
		if !recordRun(rec, acc, i, root, t0, t1, obs.stamps, explainDur) {
			out.mismatches = append(out.mismatches, fmt.Sprintf("session %d %s: missing stage events", i, study.Name))
		}
		acc.add("grouptest.tests", float64(rep.TAGTInterventions))
	}
	out.window = time.Since(start)
	out.mallocs, out.heapPeak = mw.finish()

	if cfg.trace {
		out.layers = map[string]float64{}
		acc.means(out.layers)
		stageLayers(rec.snapshot(), out.layers)
		out.layers["bench.trace_overhead_frac"] = median(tracedLat)/median(plainLat) - 1
		out.layers["bench.traced_sessions"] = float64(len(tracedLat))
	}
	return out, nil
}
