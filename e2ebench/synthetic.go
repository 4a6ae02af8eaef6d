package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"aid"
	"aid/internal/core"
	"aid/internal/grouptest"
	"aid/internal/predicate"
)

// synthetic-sweep: a closed loop with one client running Fig. 8
// instances pre-generated from the workload seed across three MAXt
// values. A session runs all four approaches on one instance and
// checks each against the ground-truth path.

// syntheticMaxTs are the MAXt columns swept, interleaved in the pool.
var syntheticMaxTs = []int{10, 26, 42}

// syntheticPool is how many instances set-up generates; the loop cycles
// through them. The first pass feeds the count metrics.
const syntheticPool = 900

type synthCase struct {
	inst     *aid.SyntheticInstance
	maxT     int
	algoSeed int64
}

func synthSetup(seed int64) ([]synthCase, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]synthCase, syntheticPool)
	for i := range pool {
		maxT := syntheticMaxTs[i%len(syntheticMaxTs)]
		inst, err := aid.GenerateSynthetic(aid.SyntheticParams{
			MaxThreads:   maxT,
			Seed:         rng.Int63(),
			LateSymptoms: -1,
		})
		if err != nil {
			return nil, err
		}
		// Keep only the ground truth: the AC-DAG Generate built to
		// validate the instance would otherwise stay live all run.
		pool[i] = synthCase{inst: freshInstance(inst), maxT: maxT, algoSeed: rng.Int63()}
	}
	return pool, nil
}

// freshInstance copies an instance's ground truth into a new world, so
// every session builds its own AC-DAG and evaluation index, as it would
// for a newly generated instance, instead of reusing the set-up's.
func freshInstance(in *aid.SyntheticInstance) *aid.SyntheticInstance {
	w := in.World
	c := *in
	c.World = &aid.SyntheticWorld{Preds: w.Preds, Parent: w.Parent, Path: w.Path, Edges: w.Edges}
	return &c
}

func runSyntheticSweep(ctx context.Context, cfg config, rec *recorder) (*outcome, error) {
	var genDur time.Duration
	setups, pool, err := timedSetups(func() ([]synthCase, error) {
		t0 := time.Now()
		p, err := synthSetup(cfg.seed)
		genDur = time.Since(t0)
		return p, err
	}, func([]synthCase) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, countWindow: syntheticPool}
	acc := layerAcc{}
	var tracedLat, plainLat []float64

	mw := startMemWatch()
	start := time.Now()
	out.start = start
	for i := 0; time.Since(start) < cfg.duration; i++ {
		c := pool[i%len(pool)]
		inst := freshInstance(c.inst)
		traced := cfg.trace && i%2 == 1
		s := sessionRec{seq: i, traced: traced}
		t0 := time.Now()
		var counts map[aid.Approach]int
		if traced {
			counts, err = tracedSynthetic(ctx, rec, acc, i, inst, c.algoSeed)
		} else {
			counts, err = plainSynthetic(ctx, inst, c.algoSeed)
		}
		s.end = time.Now()
		s.latency = s.end.Sub(t0)
		if err != nil {
			// Every approach checks its answer against the ground truth,
			// so any error here is a wrong answer.
			s.wrong = true
			out.mismatches = append(out.mismatches, fmt.Sprintf("session %d (MAXt %d): %v", i, c.maxT, err))
		} else {
			s.aid, s.tagt = counts[aid.ApproachAID], counts[aid.ApproachTAGT]
		}
		out.samples = append(out.samples, s)
		if cfg.trace && s.ok() {
			if traced {
				tracedLat = append(tracedLat, ms(s.latency))
				acc.add("grouptest.tests", float64(s.tagt))
			} else {
				plainLat = append(plainLat, ms(s.latency))
			}
		}
	}
	out.window = time.Since(start)
	out.mallocs, out.heapPeak = mw.finish()

	if cfg.trace {
		out.layers = map[string]float64{}
		acc.means(out.layers)
		total, self := layerTimes(rec.snapshot())
		out.layers["acdag.build_ms"] = mean(total["acdag.build"])
		out.layers["core.discover_ms"] = mean(total["core.discover"])
		out.layers["core.oracle_ms"] = mean(total["core.oracle"])
		out.layers["core.self_ms"] = mean(self["core.discover"])
		out.layers["grouptest.tagt_ms"] = mean(total["grouptest.tagt"])
		out.layers["synthetic.generate_ms"] = ms(genDur)
		out.layers["bench.trace_overhead_frac"] = median(tracedLat)/median(plainLat) - 1
		out.layers["bench.traced_sessions"] = float64(len(tracedLat))
	}
	return out, nil
}

// plainSynthetic is the untraced session: the facade's
// RunSyntheticInstance for every approach.
func plainSynthetic(ctx context.Context, inst *aid.SyntheticInstance, seed int64) (map[aid.Approach]int, error) {
	counts := map[aid.Approach]int{}
	for _, ap := range aid.Approaches() {
		n, err := aid.RunSyntheticInstance(ctx, inst, ap, seed)
		if err != nil {
			return nil, err
		}
		counts[ap] = n
	}
	return counts, nil
}

// timedWorld wraps the world's intervention oracle and sums the time
// spent in it, so discovery's own time can be told from the oracle's.
type timedWorld struct {
	w  core.Intervener
	ns atomic.Int64
}

func (t *timedWorld) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	t0 := time.Now()
	obs, err := t.w.Intervene(ctx, preds)
	t.ns.Add(int64(time.Since(t0)))
	return obs, err
}

// tracedSynthetic runs the same four approaches as RunSyntheticInstance
// (one fresh scheduler per approach, the same options and the same
// ground-truth checks) with the world wrapped by timedWorld and a span
// around each layer call.
func tracedSynthetic(ctx context.Context, rec *recorder, acc layerAcc, session int, inst *aid.SyntheticInstance, seed int64) (map[aid.Approach]int, error) {
	w := inst.World
	t0 := time.Now()
	root := rec.add(session, 0, "session", t0, t0) // end patched below
	defer func() { rec.setEnd(root, time.Now()) }()

	d0 := time.Now()
	dag, err := w.DAG()
	if err != nil {
		return nil, err
	}
	rec.add(session, root, "acdag.build", d0, time.Now())
	acc.add("acdag.nodes", float64(dag.Len()))

	counts := map[aid.Approach]int{}
	for _, ap := range aid.Approaches() {
		tw := &timedWorld{w: w}
		sched := core.NewScheduler(tw, core.SchedulerConfig{})
		a0 := time.Now()
		if ap == aid.ApproachTAGT {
			oracle := func(group []predicate.ID) (bool, error) {
				obs, _, err := sched.Outcome(ctx, core.Request{Preds: group})
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
			res, err := grouptest.Halving(w.SortedPreds(), oracle, seed)
			if err != nil {
				return nil, err
			}
			rec.add(session, root, "grouptest.tagt", a0, time.Now())
			got, want := slices.Clone(res.Causes), slices.Clone(w.Path)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return nil, fmt.Errorf("TAGT found %v, want %v", got, want)
			}
			counts[ap] = res.Tests
			continue
		}
		var opts core.Options
		switch ap {
		case aid.ApproachAID:
			opts = core.AIDOptions(seed)
		case aid.ApproachAIDP:
			opts = core.AIDPOptions(seed)
		default:
			opts = core.AIDPBOptions(seed)
		}
		opts.Scheduler = sched
		res, err := core.Discover(ctx, dag, sched.Intervener(), opts)
		if err != nil {
			return nil, err
		}
		a1 := time.Now()
		id := rec.add(session, root, "core.discover", a0, a1)
		rec.add(session, id, "core.oracle", a0, a0.Add(min(time.Duration(tw.ns.Load()), a1.Sub(a0))))
		if !reflect.DeepEqual(res.Path, w.WantPath()) {
			return nil, fmt.Errorf("%s found %v, want %v", ap, res.Path, w.WantPath())
		}
		counts[ap] = res.Interventions()
		if ap == aid.ApproachAID {
			acc.add("core.rounds", float64(len(res.Rounds)))
		}
	}
	return counts, nil
}
