// Package inject translates predicate repair recipes into simulator
// fault-injection plans and re-executes applications under them,
// closing the loop between AID's algorithms (package core) and the
// application substrate (package sim).
//
// It plays the role of the paper's LFI-style fault injector (§3.3,
// Appendix B): each fully-discriminative predicate carries a recipe for
// forcing it to its value in successful executions, and an intervention
// round applies the recipes of the chosen predicate group in a single
// re-execution plan.
package inject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aid/internal/core"
	"aid/internal/par"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/trace"
)

// PlanFor builds the sim.Plan that simultaneously repairs the given
// predicates. Predicates must exist in the corpus and carry a usable
// repair (Kind != IvNone). Each predicate's sub-plan is merged into one
// accumulator in place, so the cost is linear in the group size.
func PlanFor(c *predicate.Corpus, preds []predicate.ID) (sim.Plan, error) {
	plan := sim.Plan{}
	for _, id := range preds {
		p := c.Pred(id)
		if p == nil {
			return nil, fmt.Errorf("inject: unknown predicate %q", id)
		}
		sub, err := planForIntervention(string(id), p.Repair)
		if err != nil {
			return nil, err
		}
		plan.Merge(sub)
	}
	return plan, nil
}

func planForIntervention(tag string, iv predicate.Intervention) (sim.Plan, error) {
	plan := sim.Plan{}
	switch iv.Kind {
	case predicate.IvNone:
		return nil, fmt.Errorf("inject: predicate %s has no repair", tag)
	case predicate.IvLockMethods:
		mu := "aid.lock:" + tag
		for _, m := range iv.Methods {
			plan[m] = sim.MethodInjection{GlobalLocks: []string{mu}}
		}
	case predicate.IvCatchException:
		for _, m := range iv.Methods {
			plan[m] = sim.MethodInjection{CatchExceptions: true, CatchValue: iv.Value}
		}
	case predicate.IvPrematureReturn:
		for _, m := range iv.Methods {
			if iv.Void {
				plan[m] = sim.MethodInjection{ForceReturnVoid: true}
			} else {
				v := iv.Value
				plan[m] = sim.MethodInjection{ForceReturn: &v}
			}
		}
	case predicate.IvDelayReturn:
		for _, m := range iv.Methods {
			plan[m] = sim.MethodInjection{DelayReturn: trace.Time(iv.Delay)}
		}
	case predicate.IvOverrideReturn:
		for _, m := range iv.Methods {
			v := iv.Value
			plan[m] = sim.MethodInjection{OverrideReturn: &v}
		}
	case predicate.IvEnforceOrder:
		if len(iv.Methods) != 2 {
			return nil, fmt.Errorf("inject: order intervention %s needs 2 methods, got %d", tag, len(iv.Methods))
		}
		flag := "aid.order:" + tag
		plan[iv.Methods[0]] = sim.MethodInjection{SignalAfter: []sim.Signal{{Var: flag, Val: 1}}}
		plan[iv.Methods[1]] = sim.MethodInjection{WaitBefore: []sim.Signal{{Var: flag, Val: 1}}}
	case predicate.IvGroup:
		for i, part := range iv.Parts {
			sub, err := planForIntervention(fmt.Sprintf("%s.%d", tag, i), part)
			if err != nil {
				return nil, err
			}
			plan.Merge(sub)
		}
	default:
		return nil, fmt.Errorf("inject: unknown intervention kind %d for %s", iv.Kind, tag)
	}
	return plan, nil
}

// Executor is a core.Intervener backed by the simulator: each round
// re-executes the program under the merged injection plan for every
// replay seed, re-extracts predicates against the original success
// baselines, and reports which candidate predicates were observed.
// Stops is its verdict-only form, for callers (the TAGT baseline) that
// need only whether the failure stopped.
type Executor struct {
	// Prog is the application under debugging.
	Prog *sim.Program
	// Corpus holds the predicates (with repairs) from the SD phase.
	Corpus *predicate.Corpus
	// Baselines are the successful executions from the SD phase; they
	// anchor duration and return-value baselines during re-extraction
	// so predicate IDs remain comparable across rounds.
	Baselines []trace.Execution
	// Seeds are the scheduler seeds to replay under each intervention —
	// typically the seeds that produced failures (§5.3 footnote: a
	// program is executed multiple times per intervention).
	Seeds []int64
	// Cfg is the extraction configuration used in the SD phase.
	Cfg predicate.Config
	// FailureSig scopes the failure predicate to one failure group
	// (§5.1): an intervened run that crashes with a different signature
	// is a different bug, not a persistence of this one. Empty matches
	// any failure.
	FailureSig string
	// MaxSteps bounds each re-execution (0 = sim default).
	MaxSteps int
	// WallBudget bounds each re-execution's real elapsed time (0 =
	// unbounded). A replay that exceeds it is quarantined and counted
	// as a missed run, like a panicking one.
	WallBudget time.Duration
	// Workers is the pool width for replaying Seeds concurrently within
	// one intervention round; <= 0 means GOMAXPROCS. Replays are
	// consumed in seed order, so observations are identical for any
	// width.
	Workers int
	// Missed counts replays that produced no observation because their
	// (plan, seed) pair panicked, blew the wall budget, or was already
	// quarantined. Guarded by mu.
	Missed int

	// mu serializes the executor's mutable state (Missed, the lazily
	// built extractor, and the extraction post-pass, whose cached
	// baseline structures are not written concurrently). Replays
	// themselves are pure and run outside the lock.
	mu sync.Mutex
	// extractor caches the baseline-derived extraction state across
	// rounds (built lazily on first use).
	extractor *predicate.Extractor
	// Per-round scratch, guarded by mu like the extractor: reused
	// across observe calls so steady-state rounds do not allocate for
	// bookkeeping (the observation maps themselves escape into the
	// scheduler memo and stay heap-allocated).
	execScratch   []trace.Execution
	failedScratch []bool
	watchScratch  []watch

	// qmu guards the quarantine. It is separate from mu because replays
	// consult it concurrently from the worker pool, outside the
	// observation lock.
	qmu         sync.Mutex
	quarantined map[string]bool
	quarantine  []QuarantinedReplay
}

// QuarantinedReplay records one (plan, seed) pair removed from service:
// its replay panicked or exceeded the wall budget, and later rounds
// skip it (counted as a missed run) instead of crashing again.
type QuarantinedReplay struct {
	// Group is the forced-predicate group whose plan crashed.
	Group []predicate.ID
	// Seed is the scheduler seed of the crashing replay.
	Seed int64
	// Err is the contained failure (*sim.ReplayPanicError or
	// *sim.BudgetError).
	Err error
}

// Quarantined returns the quarantined (plan, seed) pairs in detection
// order.
func (e *Executor) Quarantined() []QuarantinedReplay {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return append([]QuarantinedReplay(nil), e.quarantine...)
}

// quarantineKey identifies a (plan, seed) pair: group membership
// (order-insensitive) plus seed.
func quarantineKey(group []predicate.ID, seed int64) string {
	return predicate.GroupKey(group) + "\x00" + fmt.Sprint(seed)
}

func (e *Executor) isQuarantined(group []predicate.ID, seed int64) bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return e.quarantined[quarantineKey(group, seed)]
}

func (e *Executor) addQuarantine(group []predicate.ID, seed int64, err error) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if e.quarantined == nil {
		e.quarantined = map[string]bool{}
	}
	key := quarantineKey(group, seed)
	if e.quarantined[key] {
		return
	}
	e.quarantined[key] = true
	e.quarantine = append(e.quarantine, QuarantinedReplay{
		Group: append([]predicate.ID(nil), group...),
		Seed:  seed,
		Err:   err,
	})
}

// replayHook, when non-nil, runs at the start of every guarded replay,
// inside the recover scope — tests use it to inject panics and stalls
// at exact (group, seed) coordinates.
var replayHook func(group []predicate.ID, seed int64)

// guard runs one replay under containment. Every inject replay routes
// through here: a panic anywhere inside — the hook, plan compilation
// quirks surfacing at run time, or the engine itself — is recovered
// into an error instead of escaping through par.Map as a process-level
// round failure.
func (e *Executor) guard(group []predicate.ID, seed int64, replay func(sim.Budget) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &sim.ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	if h := replayHook; h != nil {
		h(group, seed)
	}
	return replay(sim.Budget{MaxSteps: e.MaxSteps, WallClock: e.WallBudget})
}

// replayResult is one seed's replay outcome: an execution, or a
// missed run (quarantined now or previously).
type replayResult struct {
	exec   trace.Execution
	missed bool
}

var _ core.Intervener = (*Executor)(nil)

// Intervene implements core.Intervener: it compiles the group's plan
// once (sim.Prepare splices the injection stubs at the instruction
// level) and replays it under every seed across the worker pool, on
// pooled machine state with no per-call plan application. Replays are
// consumed in seed order, so the observations are identical for any
// pool width. Cancelling ctx aborts the replay sweep within one
// task-drain and returns ctx's error.
func (e *Executor) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	plan, err := PlanFor(e.Corpus, preds)
	if err != nil {
		return nil, err
	}
	pp, err := sim.Prepare(e.Prog, plan)
	if err != nil {
		return nil, fmt.Errorf("inject: re-execution: %w", err)
	}
	// Each replay is guarded: a panic or blown wall budget quarantines
	// the (plan, seed) pair and yields a missed run, never a round
	// failure.
	results, err := par.Map(ctx, len(e.Seeds), e.Workers, func(i int) (replayResult, error) {
		seed := e.Seeds[i]
		if e.isQuarantined(preds, seed) {
			return replayResult{missed: true}, nil
		}
		var exec trace.Execution
		rerr := e.guard(preds, seed, func(b sim.Budget) (err error) {
			exec, err = pp.RunGuarded(seed, b)
			return err
		})
		if rerr != nil {
			e.addQuarantine(preds, seed, rerr)
			return replayResult{missed: true}, nil
		}
		return replayResult{exec: exec}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("inject: re-execution: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// The baselines never change between rounds: extract them once and
	// rescan only the replays each round.
	if e.extractor == nil {
		x, err := predicate.NewExtractor(e.Baselines, e.Cfg)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		e.extractor = x
	}
	execs := e.execScratch[:0]
	for _, r := range results {
		if r.missed {
			e.Missed++
			continue
		}
		execs = append(execs, r.exec)
	}
	e.execScratch = execs
	if len(execs) == 0 {
		// Every replay of the group is quarantined: there is no
		// evidence to observe, and retrying cannot produce any. The
		// round fails (the robust layer reports it; discovery returns
		// its partial result) rather than fabricating an outcome.
		return nil, errAllQuarantined(preds)
	}
	return e.observe(execs, preds)
}

func errAllQuarantined(preds []predicate.ID) error {
	return fmt.Errorf("inject: every replay of group %v is quarantined", preds)
}

// isFailure reports whether a replay outcome is this executor's
// failure: a failed run whose signature matches FailureSig (any
// signature when FailureSig is empty).
func (e *Executor) isFailure(failed bool, sig string) bool {
	return failed && (e.FailureSig == "" || sig == e.FailureSig)
}

// errQuarantined marks a Stops replay skipped because its (plan, seed)
// pair was quarantined by an earlier call.
var errQuarantined = errors.New("inject: replay quarantined")

// failedReplay ends a Stops sweep: the replay of seed index i failed
// with the executor's failure signature.
type failedReplay struct{ i int }

func (failedReplay) Error() string { return "inject: replay failed" }

// Stops is the verdict-only form of Intervene, the oracle of the TAGT
// baseline: it reports whether forcing the group stops the failure,
// i.e. whether no replay fails with FailureSig. That is exactly
// "no observation of Intervene(preds) has Failed", but it is reached
// without assembling traces, extracting predicates or building
// observations, and the sweep ends at the first failing replay in seed
// order: par.Map stops claiming seeds at the first error and reports
// the lowest-index one, so the verdict is the same at any pool width.
//
// Quarantine and the wall budget act as in Intervene. Missed and the
// quarantine account only for the replays a sequential sweep would
// have run (those before the first failing one), in seed order, so they
// too are independent of the pool width. If every replay is
// quarantined, Stops returns Intervene's error.
func (e *Executor) Stops(ctx context.Context, preds []predicate.ID) (bool, error) {
	plan, err := PlanFor(e.Corpus, preds)
	if err != nil {
		return false, err
	}
	pp, err := sim.Prepare(e.Prog, plan)
	if err != nil {
		return false, fmt.Errorf("inject: re-execution: %w", err)
	}
	// missed[i] is why seed i produced no verdict (nil if it did). Each
	// slot is written only by the worker that ran seed i and read after
	// the sweep.
	missed := make([]error, len(e.Seeds))
	_, err = par.Map(ctx, len(e.Seeds), e.Workers, func(i int) (struct{}, error) {
		seed := e.Seeds[i]
		if e.isQuarantined(preds, seed) {
			missed[i] = errQuarantined
			return struct{}{}, nil
		}
		var failed bool
		var sig string
		if rerr := e.guard(preds, seed, func(b sim.Budget) (err error) {
			failed, sig, err = pp.RunVerdict(seed, b)
			return err
		}); rerr != nil {
			missed[i] = rerr
			return struct{}{}, nil
		}
		if e.isFailure(failed, sig) {
			return struct{}{}, failedReplay{i}
		}
		return struct{}{}, nil
	})
	// par.Map returns the lowest-index task error unwrapped.
	cut := len(e.Seeds)
	if fr, ok := err.(failedReplay); ok {
		cut = fr.i
	} else if err != nil {
		return false, fmt.Errorf("inject: re-execution: %w", err)
	}
	n := 0
	for i, merr := range missed[:cut] {
		if merr == nil {
			continue
		}
		if merr != errQuarantined {
			e.addQuarantine(preds, e.Seeds[i], merr)
		}
		n++
	}
	e.mu.Lock()
	e.Missed += n
	e.mu.Unlock()
	if cut < len(e.Seeds) {
		return false, nil
	}
	if n == len(e.Seeds) {
		return false, errAllQuarantined(preds)
	}
	return true, nil
}

// watch is one SD-corpus predicate interned against the replay corpus:
// per-row observation is then a bit probe per column with no string
// lookups.
type watch struct {
	id predicate.ID
	h  predicate.Handle
}

// observe turns one group's replay bundle into observations; the caller
// holds e.mu and e.extractor is built.
func (e *Executor) observe(execs []trace.Execution, preds []predicate.ID) ([]core.Observation, error) {
	failed := e.failedScratch[:0]
	for i := range execs {
		exec := &execs[i]
		failed = append(failed, e.isFailure(exec.Failed(), exec.FailureSig))
		// Replays must not contribute to the success baselines that
		// define duration/return-value predicates — an intervened run
		// that happens to succeed would otherwise dilute the baselines
		// and hide symptom predicates from interventional pruning. Mark
		// it failed for extraction purposes; the observation's Failed
		// flag is taken from the real outcome recorded above.
		exec.Outcome = trace.Failure
	}
	e.failedScratch = failed
	first := len(e.Baselines)
	// The overlay corpus is reused round to round (valid until the next
	// extraction); observations are copied out of it below, nothing is
	// retained.
	rc := e.extractor.ExtractReplays(execs)
	// Compound predicates are materialized by statistical debugging,
	// not by extraction; mirror the corpus's compounds so they stay
	// observable in intervened runs (a compound occurs iff all its
	// members do). Only the replay rows are filled: the baseline rows
	// are the extractor's sealed prefix, shared by every round, and must
	// stay unwritten (observations below read replay rows only).
	for i := range e.Corpus.Preds {
		p := &e.Corpus.Preds[i]
		if p.Kind == predicate.KindCompound {
			rc.MaterializeCompoundFrom(*p, first)
		}
	}
	watches := e.watchScratch[:0]
	for i := range e.Corpus.Preds {
		id := e.Corpus.Preds[i].ID
		if id == predicate.FailureID {
			continue
		}
		// An intervened predicate is repaired by construction
		// (¬C(r_C) in Definition 2); injections themselves can
		// perturb timing enough to re-trigger a nominally forced
		// predicate, so we pin it to false.
		if containsID(preds, id) {
			continue
		}
		if h, ok := rc.HandleOf(id); ok {
			watches = append(watches, watch{id, h})
		}
	}
	e.watchScratch = watches
	out := make([]core.Observation, 0, rc.NumLogs()-first)
	for i := first; i < rc.NumLogs(); i++ {
		log := rc.Log(i)
		// Pre-count so the escaping observation map is allocated at its
		// exact final size (it outlives the round inside the scheduler
		// memo, so it cannot come from round scratch).
		cnt := 0
		for _, w := range watches {
			if log.HasHandle(w.h) {
				cnt++
			}
		}
		obs := core.Observation{
			Failed:   failed[i-first],
			Observed: make(map[predicate.ID]bool, cnt),
		}
		for _, w := range watches {
			if log.HasHandle(w.h) {
				obs.Observed[w.id] = true
			}
		}
		out = append(out, obs)
	}
	return out, nil
}

// containsID reports whether the forced-predicate group contains id;
// groups are small (a handful of IDs), so a linear scan beats a
// per-round map.
func containsID(preds []predicate.ID, id predicate.ID) bool {
	for _, p := range preds {
		if p == id {
			return true
		}
	}
	return false
}
