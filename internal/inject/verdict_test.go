package inject

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aid/internal/predicate"
)

// interveneVerdict is the reference TAGT verdict: no observation of
// Intervene(group) failed.
func interveneVerdict(exec *Executor, ctx context.Context, group []predicate.ID) (bool, error) {
	obs, err := exec.Intervene(ctx, group)
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

// TestStopsMatchesInterveneEdgeCases extends the case-study verdict gate
// (TestStopsMatchesIntervene) to the paths the studies do not reach: a
// failure under another signature, a contained panic on the lowest
// seed or past the first failing replay, every seed panicking, and a
// cancelled context. Each case runs
// at pool widths 1 and 4 on fresh executors, so Stops and Intervene see
// the same quarantine state.
func TestStopsMatchesInterveneEdgeCases(t *testing.T) {
	repair := []predicate.ID{"ret:Check#0"}   // stops the failure
	spurious := []predicate.ID{"slow:Slow#0"} // every replay still fails
	for _, workers := range []int{1, 4} {
		fixture := func(t *testing.T) *Executor {
			_, _, exec := executorFixture(t)
			exec.Workers = workers
			return exec
		}
		// compare checks Stops against the Intervene verdict (value and
		// error text) for executors scoped to failureSig and returns the
		// verdict.
		compare := func(t *testing.T, ctx context.Context, failureSig string, group []predicate.ID) (bool, error) {
			t.Helper()
			ref, got := fixture(t), fixture(t)
			ref.FailureSig, got.FailureSig = failureSig, failureSig
			want, werr := interveneVerdict(ref, ctx, group)
			stop, serr := got.Stops(ctx, group)
			if fmt.Sprint(werr) != fmt.Sprint(serr) || stop != want {
				t.Fatalf("group %v: Stops = (%v, %v), Intervene verdict = (%v, %v)", group, stop, serr, want, werr)
			}
			return stop, serr
		}
		ctx := context.Background()

		t.Run(fmt.Sprintf("workers=%d/signature", workers), func(t *testing.T) {
			_, _, exec := executorFixture(t)
			obs, err := exec.Intervene(ctx, spurious)
			if err != nil || !obs[0].Failed {
				t.Fatalf("fixture: spurious group must keep failing (%v)", err)
			}
			if stop, _ := compare(t, ctx, "", spurious); stop {
				t.Fatal("any-signature verdict: spurious group reported stopped")
			}
			// The fixture fails with an uncaught exception; pinning the
			// executor to another group's signature makes every replay a
			// different bug, so the failure counts as stopped.
			if stop, _ := compare(t, ctx, "another-bug", spurious); !stop {
				t.Fatal("failures under another signature must not count")
			}
		})

		t.Run(fmt.Sprintf("workers=%d/panic-lowest-seed", workers), func(t *testing.T) {
			for _, group := range [][]predicate.ID{repair, spurious} {
				plain, _ := compare(t, ctx, "", group)
				lowest := fixture(t).Seeds[0]
				withReplayHook(t, func(_ []predicate.ID, seed int64) {
					if seed == lowest {
						panic("injected crash on the lowest seed")
					}
				})
				stop, err := compare(t, ctx, "", group)
				if err != nil || stop != plain {
					t.Fatalf("group %v: verdict %v (%v) under a lowest-seed panic, %v without", group, stop, err, plain)
				}
				exec := fixture(t)
				if _, err := exec.Stops(ctx, group); err != nil {
					t.Fatal(err)
				}
				if q := exec.Quarantined(); exec.Missed != 1 || len(q) != 1 || q[0].Seed != lowest {
					t.Fatalf("group %v: Missed = %d, quarantine %v; want the lowest seed %d once", group, exec.Missed, q, lowest)
				}
				replayHook = nil
			}
		})

		t.Run(fmt.Sprintf("workers=%d/panic-past-first-failure", workers), func(t *testing.T) {
			// The spurious group's first replay fails, which decides the
			// verdict: a panic on the last seed is past the cut at every
			// pool width, so it is neither missed nor quarantined.
			exec := fixture(t)
			last := exec.Seeds[len(exec.Seeds)-1]
			lastRan := make(chan struct{})
			withReplayHook(t, func(_ []predicate.ID, seed int64) {
				if seed == last {
					close(lastRan)
					panic("injected crash past the first failure")
				}
				if workers > 1 {
					// Hold the earlier seeds until the last one has run, so
					// the wide pool really replays a seed past the cut.
					select {
					case <-lastRan:
					case <-time.After(5 * time.Second):
					}
				}
			})
			if stop, err := exec.Stops(ctx, spurious); err != nil || stop {
				t.Fatalf("Stops = (%v, %v), want (false, nil)", stop, err)
			}
			if exec.Missed != 0 || len(exec.Quarantined()) != 0 {
				t.Fatalf("Missed = %d, quarantine %v; want nothing past the first failing replay", exec.Missed, exec.Quarantined())
			}
		})

		t.Run(fmt.Sprintf("workers=%d/every-seed-panics", workers), func(t *testing.T) {
			withReplayHook(t, func([]predicate.ID, int64) { panic("every replay crashes") })
			for _, group := range [][]predicate.ID{repair, spurious} {
				if _, err := compare(t, ctx, "", group); err == nil {
					t.Fatalf("group %v: want the all-quarantined error", group)
				}
				exec := fixture(t)
				for i := 0; i < 2; i++ {
					if _, err := exec.Stops(ctx, group); err == nil {
						t.Fatalf("group %v, call %d: want the all-quarantined error", group, i)
					}
				}
				if got, want := len(exec.Quarantined()), len(exec.Seeds); got != want || exec.Missed != 2*want {
					t.Fatalf("group %v: quarantine %d entries, Missed %d; want %d and %d", group, got, exec.Missed, want, 2*want)
				}
			}
		})

		t.Run(fmt.Sprintf("workers=%d/cancelled", workers), func(t *testing.T) {
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			for _, group := range [][]predicate.ID{repair, spurious} {
				if _, err := compare(t, cctx, "", group); !errors.Is(err, context.Canceled) {
					t.Fatalf("group %v: err = %v, want ctx.Err()", group, err)
				}
			}
		})
	}
}
