// The intervention scheduler: the execution layer between the
// discovery logic (Algorithms 1–3) and the Intervener.
//
// Discovery is adaptive — each round's group depends on the previous
// outcome — so the scheduler cannot reorder or run ahead of rounds.
// What it can do is memoize outcomes keyed by the forced-predicate set,
// so a group retested across the branch-prune and GIWP phases, or
// across ablation variants sharing one scheduler, never re-replays.
//
// Every bundle is a pure function of its forced-predicate set (the
// Intervener contract for deterministic replay), so caching cannot
// change an outcome: the Result is byte-identical whether the
// scheduler was fresh or shared with a previous variant's run. Only the
// RoundMeta reported to observers (batch ids, cache hits) reflects how
// outcomes were produced.
package core

import (
	"context"
	"sort"
	"sync"

	"aid/internal/predicate"
)

// Request is one outcome the discovery logic needs from the scheduler.
type Request struct {
	// Preds is the group to intervene on.
	Preds []predicate.ID
	// Escalation, in robust mode, requests a fresh escalated retest of
	// the group: the cache is bypassed, the trial budget is scaled by
	// the level, and the outcome overwrites any cached entry. The
	// discovery logic uses it during known-positive invariant repair,
	// where the cached verdicts are exactly what is under suspicion.
	// Ignored outside robust mode.
	Escalation int
}

// RoundMeta describes how a round's outcome was produced. It is
// observational (provenance, not algorithm state): metadata differs
// between a fresh and a shared scheduler even though the Round and
// Result are byte-identical.
type RoundMeta struct {
	// Batch is the 1-based id of the execution batch that produced the
	// outcome. A cache hit carries the id of the batch that first
	// executed the group.
	Batch int
	// CacheHit reports that the outcome was already available when
	// requested — no new replays were started.
	CacheHit bool
	// Trials and Retries report the adaptive trial oracle's cost for
	// the outcome (zero outside robust mode): executions that produced
	// observations, and transient-error retries on top. A repaired
	// round folds its escalated retest into the totals.
	Trials, Retries int
	// Confidence is the verdict's posterior under the configured noise
	// bounds (zero outside robust mode, 1 for a conclusive
	// counter-example).
	Confidence float64
	// Contradiction reports that the outcome initially contradicted a
	// recorded verdict and went through escalated repair.
	Contradiction bool
}

// SchedulerStats aggregates a scheduler's execution accounting.
type SchedulerStats struct {
	// Requests counts Outcome calls; Executions counts groups actually
	// replayed (Requests - CacheHits, plus robust-mode repair retests).
	Requests, Executions int
	// CacheHits counts requests served without starting new replays.
	CacheHits int
	// Batches counts logical execution batches launched.
	Batches int
	// Contradictions counts monotonicity violations detected between a
	// fresh outcome and a recorded verdict (robust mode only).
	Contradictions int
	// Repaired counts contradictions whose escalated retests restored
	// consistency; the remainder were resolved by trusting the
	// persisted side.
	Repaired int
	// Escalated counts escalated retests executed (repair retests plus
	// Request.Escalation rounds).
	Escalated int
}

// SchedulerConfig configures a Scheduler.
type SchedulerConfig struct {
	// NoCache disables outcome memoization while still treating the
	// intervener as deterministic — every round re-executes, but
	// outcomes are assumed pure. Useful as the control in
	// cached-vs-uncached equivalence tests.
	NoCache bool
	// Nondeterministic declares the intervener stateful or noisy (e.g.
	// FlakyWorld, whose observation stream must advance on every
	// round). It implies NoCache and additionally disables the
	// group-testing deductions that substitute elimination for a
	// confirming retest: under noise the "positive pool" premise may
	// itself be a missed manifestation, and the retest is what keeps a
	// spurious candidate from being confirmed causal.
	Nondeterministic bool
	// Robust declares the intervener noisy but verdict-stabilized —
	// wrapped in a RobustIntervener (or equivalent) whose outcomes
	// carry a confidence bound. Unlike Nondeterministic, which abandons
	// memoization and deduction wholesale, Robust re-enables both under
	// guards: outcomes are memoized (each verdict is already a
	// high-confidence aggregate, so replaying it from cache is no worse
	// than re-asking the oracle), every fresh verdict is checked
	// against the recorded ones for monotonicity violations, and a
	// contradiction triggers invalidation plus an escalated retest
	// instead of silent trust. Takes precedence over Nondeterministic.
	Robust bool
	// OnContradiction, when non-nil in robust mode, is invoked for each
	// detected contradiction after its repair completed. Purely
	// observational.
	OnContradiction func(ContradictionEvent)
}

// ContradictionEvent describes one detected monotonicity violation: a
// group whose intervention stopped the failure while a superset's
// intervention let it persist. Under a truthful oracle that is
// impossible (forcing more predicates to their passing values cannot
// un-stop the failure), so one of the two verdicts is noise.
type ContradictionEvent struct {
	// Stopped is the subset group whose recorded verdict was "failure
	// stopped"; Persisted is the superset whose verdict was "failure
	// persisted".
	Stopped, Persisted []predicate.ID
	// Resolved reports that the escalated retests restored consistency.
	// When false, the persisted verdict was trusted (a failing run is
	// the stronger evidence under missed-manifestation noise) and the
	// stopped verdict was struck from the index.
	Resolved bool
}

// outcomeEntry is one cached (or in-flight) group outcome. An entry is
// in flight until its fields are filled under the scheduler lock; an
// in-flight entry has no observations yet. A failed execution never
// stays in the cache.
type outcomeEntry struct {
	obs   []Observation
	batch int
	// preds is the group behind the entry's cache key, kept so the memo
	// can be exported (the key is a canonical digest, not invertible).
	preds []predicate.ID
	// info and contradiction are the robust-mode provenance of the
	// outcome, replayed into RoundMeta on cache hits.
	info          TrialInfo
	contradiction bool
}

// verdictRec is one recorded group verdict in the robust scheduler's
// monotonicity index.
type verdictRec struct {
	// ids is the group, sorted for subset tests.
	ids []predicate.ID
	// stopped is the verdict.
	stopped bool
}

// Scheduler mediates every intervention of a discovery run. It may be
// shared across Discover calls over the same deterministic intervener
// (e.g. the AID / AID-P / AID-P-B ablation variants of one instance),
// in which case the memo cache carries over and repeated groups are
// never re-replayed. A Scheduler must not be shared across different
// interveners or non-deterministic ones (see SchedulerConfig.NoCache).
//
// Concurrency contract: Outcome is called from a single decision
// thread (discovery is adaptive — there is never a second concurrent
// requester), and only that thread calls the intervener. The lock
// guards the cache and the accounting, which ExportMemo and Stats read
// from other goroutines.
type Scheduler struct {
	iv            Intervener
	tiv           TrialIntervener // nil when iv runs no adaptive trials
	noCache       bool
	deterministic bool
	robust        bool
	onContra      func(ContradictionEvent)

	mu      sync.Mutex
	cache   map[string]*outcomeEntry
	batches int
	stats   SchedulerStats

	// verdicts is the monotonicity index of robust mode: every verdict
	// the scheduler has vouched for, keyed like the cache; verdictKeys
	// preserves insertion order so conflict detection is deterministic.
	// Accessed only from the decision thread (see the concurrency
	// contract), so they need no lock.
	verdicts    map[string]*verdictRec
	verdictKeys []string
}

// NewScheduler builds a scheduler over the intervener. The same
// scheduler value is safe to pass to several (sequential) Discover
// calls.
func NewScheduler(iv Intervener, cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{
		iv:            iv,
		noCache:       cfg.NoCache || (cfg.Nondeterministic && !cfg.Robust),
		deterministic: !cfg.Nondeterministic && !cfg.Robust,
		robust:        cfg.Robust,
		onContra:      cfg.OnContradiction,
		cache:         map[string]*outcomeEntry{},
	}
	if tiv, ok := iv.(TrialIntervener); ok {
		s.tiv = tiv
	}
	if s.robust {
		s.verdicts = map[string]*verdictRec{}
	}
	return s
}

// Intervener returns the wrapped intervener.
func (s *Scheduler) Intervener() Intervener { return s.iv }

// Rebind swaps the wrapped intervener while keeping the memo cache —
// the hook behind cross-session scheduler reuse: a daemon session
// builds a fresh executor over the same (program, corpus, seeds,
// config) tuple as an earlier session and inherits its outcomes.
//
// The caller owns two contracts. Equivalence: the new intervener must
// be outcome-equivalent to the old one (same forced-predicate set →
// same observations), or the cache serves poison; key schedulers by
// everything that determines outcomes. Exclusivity: Rebind must not
// race a running Discover — callers serialize runs that share a
// scheduler (aid.SharedScheduler does).
func (s *Scheduler) Rebind(iv Intervener) {
	s.iv = iv
	s.tiv, _ = iv.(TrialIntervener)
}

// Deterministic reports whether the intervener was declared a pure
// function of the forced-predicate set (i.e. Nondeterministic was not
// set). The discovery logic consults it before substituting a
// group-testing deduction for a confirming retest: under noise a
// falsely-stopped group must still be retested, or a single missed
// manifestation confirms a spurious candidate.
func (s *Scheduler) Deterministic() bool { return s.deterministic }

// Robust reports that the scheduler runs in robust mode: a noisy but
// verdict-stabilized intervener with guarded memoization, contradiction
// repair, and escalated retests available. The discovery logic consults
// it to enable the known-positive invariant repair.
func (s *Scheduler) Robust() bool { return s.robust }

// Deductive reports whether the discovery logic may substitute a
// group-testing deduction for a confirming retest. True for declared
// deterministic interveners (the deduction is sound outright) and in
// robust mode (each verdict carries a confidence bound and the
// known-positive repair catches the residual error); false under plain
// Nondeterministic, where a single missed manifestation would confirm a
// spurious candidate unchecked.
func (s *Scheduler) Deductive() bool { return s.deterministic || s.robust }

// Stats returns a snapshot of the execution accounting.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// canonKey is the cache key of a forced-predicate set: membership only,
// order-insensitive (predicate.GroupKey, shared with inject's replay
// quarantine).
func canonKey(preds []predicate.ID) string { return predicate.GroupKey(preds) }

// Outcome returns the observations for the requested group, executing
// it on the calling goroutine unless the cache already holds it.
func (s *Scheduler) Outcome(ctx context.Context, req Request) ([]Observation, RoundMeta, error) {
	if s.robust && req.Escalation > 0 {
		return s.escalatedOutcome(ctx, req)
	}
	if s.noCache {
		s.mu.Lock()
		s.stats.Requests++
		s.stats.Executions++
		s.stats.Batches++
		s.batches++
		batch := s.batches
		s.mu.Unlock()
		obs, err := s.iv.Intervene(ctx, req.Preds)
		meta := RoundMeta{Batch: batch}
		if err == nil && s.robust {
			var info TrialInfo
			var contradicted bool
			obs, info, contradicted, err = s.vetOutcome(ctx, req.Preds, canonKey(req.Preds), obs)
			meta.Trials, meta.Retries = info.Trials, info.Retries
			meta.Confidence = info.Confidence
			meta.Contradiction = contradicted
		}
		return obs, meta, err
	}

	key := canonKey(req.Preds)
	s.mu.Lock()
	s.stats.Requests++
	e, hit := s.cache[key]
	if hit {
		s.stats.CacheHits++
		s.mu.Unlock()
		meta := RoundMeta{Batch: e.batch, CacheHit: true, Trials: e.info.Trials, Retries: e.info.Retries,
			Confidence: e.info.Confidence, Contradiction: e.contradiction}
		return e.obs, meta, nil
	}
	s.batches++
	s.stats.Batches++
	s.stats.Executions++
	e = &outcomeEntry{batch: s.batches, preds: append([]predicate.ID(nil), req.Preds...)}
	s.cache[key] = e
	s.mu.Unlock()

	obs, err := s.iv.Intervene(ctx, req.Preds)
	var info TrialInfo
	var contradicted bool
	if err == nil && s.robust {
		obs, info, contradicted, err = s.vetOutcome(ctx, req.Preds, key, obs)
	}
	s.mu.Lock()
	if err != nil {
		// Never memoize failures: a cancelled context or transient
		// intervener error must not be served back to a later run
		// over a shared scheduler.
		if s.cache[key] == e {
			delete(s.cache, key)
		}
	} else {
		e.obs, e.info, e.contradiction = obs, info, contradicted
	}
	s.mu.Unlock()
	meta := RoundMeta{Batch: e.batch, Trials: info.Trials, Retries: info.Retries,
		Confidence: info.Confidence, Contradiction: contradicted}
	return obs, meta, err
}

// escalatedOutcome serves a Request with Escalation > 0: a fresh
// escalated retest that bypasses and then overwrites the cache. Used by
// the known-positive invariant repair, where the recorded verdicts are
// exactly what is under suspicion.
func (s *Scheduler) escalatedOutcome(ctx context.Context, req Request) ([]Observation, RoundMeta, error) {
	key := canonKey(req.Preds)
	s.mu.Lock()
	s.stats.Requests++
	s.stats.Executions++
	s.stats.Escalated++
	s.stats.Batches++
	s.batches++
	batch := s.batches
	s.mu.Unlock()
	obs, info, err := s.escalatedIntervene(ctx, req.Preds, req.Escalation)
	if err != nil {
		s.mu.Lock()
		delete(s.cache, key)
		s.mu.Unlock()
		return nil, RoundMeta{Batch: batch}, err
	}
	if !s.noCache {
		e := &outcomeEntry{obs: obs, batch: batch, info: info,
			preds: append([]predicate.ID(nil), req.Preds...)}
		s.mu.Lock()
		s.cache[key] = e
		s.mu.Unlock()
	}
	s.recordVerdict(key, req.Preds, !anyFailed(obs))
	meta := RoundMeta{Batch: batch, Trials: info.Trials, Retries: info.Retries, Confidence: info.Confidence}
	return obs, meta, nil
}

// escalatedIntervene runs one escalated retest through the trial
// oracle, or a plain Intervene when the intervener runs no trials.
func (s *Scheduler) escalatedIntervene(ctx context.Context, preds []predicate.ID, level int) ([]Observation, TrialInfo, error) {
	if s.tiv != nil {
		obs, err := s.tiv.InterveneEscalated(ctx, preds, level)
		return obs, s.tiv.LastInfo(), err
	}
	obs, err := s.iv.Intervene(ctx, preds)
	return obs, TrialInfo{}, err
}

// lastInfo reads the trial provenance of the most recent round, when
// the intervener exposes it.
func (s *Scheduler) lastInfo() TrialInfo {
	if s.tiv != nil {
		return s.tiv.LastInfo()
	}
	return TrialInfo{}
}

// vetOutcome is robust mode's admission check for a fresh outcome: the
// verdict is tested against every recorded one for monotonicity
// violations, a contradiction triggers escalated retests of both sides
// (repair), and the surviving verdict is recorded in the index. Runs on
// the decision thread only.
func (s *Scheduler) vetOutcome(ctx context.Context, preds []predicate.ID, key string, obs []Observation) ([]Observation, TrialInfo, bool, error) {
	info := s.lastInfo()
	stopped := !anyFailed(obs)
	conflictKey, conflict := s.findConflict(key, preds, stopped)
	if conflict == nil {
		s.recordVerdict(key, preds, stopped)
		return obs, info, false, nil
	}
	s.mu.Lock()
	s.stats.Contradictions++
	s.mu.Unlock()

	// Repair: escalated retests of both sides; the retested verdicts
	// replace the suspect ones in cache and index.
	retest := func(p []predicate.ID) ([]Observation, TrialInfo, error) {
		s.mu.Lock()
		s.stats.Executions++
		s.stats.Escalated++
		s.mu.Unlock()
		return s.escalatedIntervene(ctx, p, 1)
	}
	curObs, curInfo, err := retest(preds)
	if err != nil {
		return nil, info, true, err
	}
	otherObs, otherInfo, err := retest(conflict.ids)
	if err != nil {
		return nil, info, true, err
	}
	curStopped := !anyFailed(curObs)
	otherStopped := !anyFailed(otherObs)
	s.mu.Lock()
	if e, ok := s.cache[conflictKey]; ok {
		e.obs, e.info = otherObs, otherInfo
	}
	s.mu.Unlock()
	conflict.stopped = otherStopped

	// The original violation was stopped(S) ⊆ persisted(P); after the
	// retests, consistency holds unless that same orientation recurs.
	var still bool
	var ev ContradictionEvent
	if stopped {
		// Current group was the stopped subset.
		still = curStopped && !otherStopped
		ev = ContradictionEvent{Stopped: append([]predicate.ID(nil), preds...),
			Persisted: append([]predicate.ID(nil), conflict.ids...)}
	} else {
		still = otherStopped && !curStopped
		ev = ContradictionEvent{Stopped: append([]predicate.ID(nil), conflict.ids...),
			Persisted: append([]predicate.ID(nil), preds...)}
	}
	ev.Resolved = !still
	if still {
		// Unresolved even escalated: trust the persisted side — under
		// missed-manifestation noise a failing run is the stronger
		// evidence — and strike the stopped verdict from the index so
		// it cannot trigger the same repair again. Its cache entry goes
		// too: a future request must re-ask the oracle.
		if stopped {
			delete(s.verdicts, key)
			s.mu.Lock()
			delete(s.cache, key)
			s.mu.Unlock()
		} else {
			delete(s.verdicts, conflictKey)
			s.mu.Lock()
			delete(s.cache, conflictKey)
			s.mu.Unlock()
			s.recordVerdict(key, preds, curStopped)
		}
	} else {
		s.mu.Lock()
		s.stats.Repaired++
		s.mu.Unlock()
		s.recordVerdict(key, preds, curStopped)
	}
	if s.onContra != nil {
		s.onContra(ev)
	}
	info.Trials += curInfo.Trials + otherInfo.Trials
	info.Retries += curInfo.Retries + otherInfo.Retries
	if curInfo.Confidence > 0 {
		info.Confidence = curInfo.Confidence
	}
	return curObs, info, true, nil
}

// findConflict scans the verdict index for a monotonicity violation
// with the given verdict: a stopped group conflicts with any recorded
// persisted superset, a persisted group with any recorded stopped
// subset. Scan order is insertion order, so detection is deterministic.
func (s *Scheduler) findConflict(key string, preds []predicate.ID, stopped bool) (string, *verdictRec) {
	if len(s.verdicts) == 0 {
		return "", nil
	}
	cur := sortedIDs(preds)
	for _, k := range s.verdictKeys {
		rec := s.verdicts[k]
		if rec == nil || k == key || rec.stopped == stopped {
			continue
		}
		if stopped && subsetIDs(cur, rec.ids) {
			return k, rec // we stopped, a recorded superset persisted
		}
		if !stopped && subsetIDs(rec.ids, cur) {
			return k, rec // we persisted, a recorded subset stopped
		}
	}
	return "", nil
}

// recordVerdict inserts or updates a group's verdict in the index.
func (s *Scheduler) recordVerdict(key string, preds []predicate.ID, stopped bool) {
	if s.verdicts == nil {
		return
	}
	if rec, ok := s.verdicts[key]; ok {
		rec.stopped = stopped
		return
	}
	s.verdicts[key] = &verdictRec{ids: sortedIDs(preds), stopped: stopped}
	s.verdictKeys = append(s.verdictKeys, key)
}

// sortedIDs copies and sorts a group for subset testing.
func sortedIDs(preds []predicate.ID) []predicate.ID {
	out := append([]predicate.ID(nil), preds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subsetIDs reports sub ⊆ super over sorted ID slices.
func subsetIDs(sub, super []predicate.ID) bool {
	if len(sub) > len(super) {
		return false
	}
	j := 0
	for _, id := range sub {
		for j < len(super) && super[j] < id {
			j++
		}
		if j >= len(super) || super[j] != id {
			return false
		}
		j++
	}
	return true
}
