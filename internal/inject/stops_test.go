package inject_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/grouptest"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/statdebug"
)

// The pipeline's defaults: a 50+50 corpus within 4000 seeds, 5 replays
// per group test, algorithm seed 1.
const (
	tagtReplays = 5
	tagtSeed    = 1
)

// tagtFixture builds one study's TAGT inputs the way aid.Pipeline.Run
// does at its defaults: the corpus, the AC-DAG candidate pool, and a
// constructor for fresh replay executors at a given pool width.
func tagtFixture(t *testing.T, s *casestudy.Study) (func(workers int) *inject.Executor, []predicate.ID) {
	t.Helper()
	set, failSeeds, err := casestudy.Collect(context.Background(), s,
		casestudy.CollectConfig{Successes: 50, Failures: 50, SeedCap: 4000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := casestudy.ConfigFor(s.Program)
	corpus := predicate.Extract(set, cfg)
	dag, _, err := acdag.Build(corpus, statdebug.FullyDiscriminative(corpus), acdag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var pool []predicate.ID
	for _, id := range dag.Nodes() {
		if id != predicate.FailureID {
			pool = append(pool, id)
		}
	}
	replay := failSeeds[:min(len(failSeeds), tagtReplays)]
	newExec := func(workers int) *inject.Executor {
		exec := &inject.Executor{
			Prog:       s.Program,
			Corpus:     corpus,
			Seeds:      replay,
			Cfg:        cfg,
			FailureSig: s.FailureSig,
			MaxSteps:   s.MaxSteps,
			Workers:    workers,
		}
		for i := range set.Executions {
			if !set.Executions[i].Failed() {
				exec.Baselines = append(exec.Baselines, set.Executions[i])
			}
		}
		return exec
	}
	return newExec, pool
}

// TestStopsMatchesIntervene is the verdict-equivalence gate for the TAGT
// oracle: on every case study, for every group TAGT tests plus seeded
// random subsets of its pool, Stops at pool widths 1 and 4 returns
// exactly "no observation of Intervene(group) failed", and TAGT driven
// by Stops reproduces the Intervene-driven result test for test.
func TestStopsMatchesIntervene(t *testing.T) {
	ctx := context.Background()
	for _, s := range casestudy.All() {
		t.Run(s.Name, func(t *testing.T) {
			newExec, pool := tagtFixture(t, s)
			ref := newExec(1)
			verdict := func(group []predicate.ID) (bool, error) {
				obs, err := ref.Intervene(ctx, group)
				if err != nil {
					return false, err
				}
				for _, o := range obs {
					if o.Failed {
						return false, nil
					}
				}
				return true, nil
			}
			var groups [][]predicate.ID
			recorded := func(group []predicate.ID) (bool, error) {
				groups = append(groups, slices.Clone(group))
				return verdict(group)
			}
			want, err := grouptest.Adaptive(pool, recorded, tagtSeed)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(len(pool))*7919 + int64(len(s.Name))))
			for k := 0; k < 12; k++ {
				perm := r.Perm(len(pool))[:1+r.Intn(len(pool))]
				g := make([]predicate.ID, len(perm))
				for i, j := range perm {
					g[i] = pool[j]
				}
				groups = append(groups, g)
			}

			stopped := 0
			for _, workers := range []int{1, 4} {
				exec := newExec(workers)
				for _, g := range groups {
					wantStop, err := verdict(g)
					if err != nil {
						t.Fatal(err)
					}
					got, err := exec.Stops(ctx, g)
					if err != nil {
						t.Fatalf("workers=%d group %v: %v", workers, g, err)
					}
					if got != wantStop {
						t.Fatalf("workers=%d group %v: Stops = %v, Intervene verdict = %v", workers, g, got, wantStop)
					}
					if got {
						stopped++
					}
				}
				res, err := grouptest.Adaptive(pool, func(g []predicate.ID) (bool, error) {
					return exec.Stops(ctx, g)
				}, tagtSeed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("workers=%d: TAGT over Stops = %+v, over Intervene = %+v", workers, res, want)
				}
			}
			if stopped == 0 || stopped == 2*len(groups) {
				t.Fatalf("all %d verdicts agree (%d stopped): the comparison exercises only one outcome", 2*len(groups), stopped)
			}
		})
	}
}
