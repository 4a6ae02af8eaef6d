package predicate

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"aid/internal/trace"
)

// Config controls predicate extraction.
type Config struct {
	// SideEffectFree reports whether a method can safely have its return
	// value altered or its exceptions absorbed (§3.3). Nil means no
	// method is safe for those interventions; timing and locking
	// interventions are always safe.
	SideEffectFree func(method string) bool
	// DurationMargin is the significance threshold for duration
	// predicates: a call is "too slow" only when it exceeds the success
	// maximum by more than the margin (and "too fast" symmetrically).
	// It suppresses tick-level artifacts of branch shape, akin to the
	// statistical significance filters of SD tools.
	DurationMargin trace.Time
	// PureMethods reports whether a method is provably pure (the effect
	// analysis's pruning bar): predicates anchored entirely in pure
	// methods cannot host a root cause and are dropped before ranking
	// (Corpus.DropPure). Nil disables effect-guided pruning.
	PureMethods func(method string) bool
}

func (c Config) sideEffectFree(m string) bool {
	return c.SideEffectFree != nil && c.SideEffectFree(m)
}

// instKey identifies a dynamic method instance across executions.
type instKey struct {
	m    string
	inst int
}

func (k instKey) String() string { return k.m + "#" + strconv.Itoa(k.inst) }

// callIDs holds the five predicate IDs perCall can emit for one method
// instance. The engine caches them by instKey so each ID string is
// concatenated once per distinct instance — in the intervention loop
// (Extractor), once per discovery, not per round.
type callIDs struct {
	fails, slow, fast, late, ret ID
}

func idsFor(cache map[instKey]callIDs, k instKey) callIDs {
	if ci, ok := cache[k]; ok {
		return ci
	}
	ks := k.String()
	ci := callIDs{
		fails: ID("fails:" + ks),
		slow:  ID("slow:" + ks),
		fast:  ID("fast:" + ks),
		late:  ID("late:" + ks),
		ret:   ID("ret:" + ks),
	}
	cache[k] = ci
	return ci
}

// succStats aggregates per-instance behaviour over successful runs.
type succStats struct {
	present       int
	minDur        trace.Time
	maxDur        trace.Time
	maxStart      trace.Time
	ret           trace.Value
	retSet        bool
	retConsistent bool
}

// Extract evaluates the full predicate vocabulary over the trace corpus
// and returns the predicate logs. It mirrors the paper's offline
// predicate-extraction phase: success baselines are learned from the
// successful executions, then every execution is scanned for
// deviations, one row at a time. Predicates register in order of
// first occurrence.
//
// When the same success baselines are reused against changing failure
// replays round after round (intervention replay), use an Extractor
// instead: it runs the same engine but scans the baselines only once.
func Extract(s *trace.Set, cfg Config) *Corpus {
	en := newEngine(s.Successes(), cfg)
	c := NewCorpus()
	c.AddPred(FailurePredicate())
	for i := range s.Executions {
		en.addRow(c, &s.Executions[i])
	}
	c.DropPure(cfg.PureMethods)
	c.DropUnobserved()
	return c
}

// engine is the one predicate-extraction path. It holds the state
// derived from the successful executions — per-instance baselines, the
// order baseline with its candidate pairs, the atomicity candidates —
// plus reusable scratch, and evaluates the vocabulary one execution
// row at a time (addRow). Extract runs it over a whole corpus; an
// Extractor runs it over the baselines once, then over each round's
// replays. An engine is single-threaded.
type engine struct {
	cfg   Config
	stats map[instKey]*succStats
	order *orderState // nil when no order predicate can exist
	atom  *atomState
	// ids interns the per-instance predicate ID strings.
	ids    map[instKey]callIDs
	race   *raceScratch
	atomSc *atomScratch
}

func newEngine(succs []*trace.Execution, cfg Config) *engine {
	stats := successBaselines(succs)
	return &engine{
		cfg:    cfg,
		stats:  stats,
		order:  buildOrderState(succs, stats),
		atom:   buildAtomState(succs),
		ids:    make(map[instKey]callIDs),
		race:   newRaceScratch(),
		atomSc: newAtomScratch(),
	}
}

// addRow appends e as the next row of c and records every predicate
// occurring in it, registering each predicate on its first occurrence.
// c must already hold the failure predicate F.
func (en *engine) addRow(c *Corpus, e *trace.Execution) {
	row := c.AddRow(e.ID, e.Failed())
	en.perCall(c, row, e)
	en.races(c, row, e)
	if !e.Failed() {
		// The successes define the order and atomicity baselines, so
		// they can violate neither; nor do they carry F.
		return
	}
	stampFailure(c, row, e)
	en.orderFlips(c, row, e)
	en.atomicity(c, row, e)
}

// stampFailure records the failure predicate F in a failed row.
func stampFailure(c *Corpus, row int, e *trace.Execution) {
	if len(e.Calls) == 0 {
		return
	}
	fh, _ := c.HandleOf(FailureID)
	var end trace.Time
	for j := range e.Calls {
		if e.Calls[j].End > end {
			end = e.Calls[j].End
		}
	}
	// F is stamped strictly after the last event: the failure
	// manifests once everything observed has happened, so any
	// predicate completing by the crash can temporally precede F.
	c.SetOcc(row, fh, Occurrence{Start: end, End: end + 1, Thread: NoThread})
}

func successBaselines(succs []*trace.Execution) map[instKey]*succStats {
	stats := make(map[instKey]*succStats)
	for _, e := range succs {
		for i := range e.Calls {
			call := &e.Calls[i]
			k := instKey{call.Method, call.Instance}
			st, ok := stats[k]
			if !ok {
				st = &succStats{
					minDur:        call.Duration(),
					maxDur:        call.Duration(),
					retConsistent: true,
				}
				stats[k] = st
			}
			st.present++
			if d := call.Duration(); d < st.minDur {
				st.minDur = d
			} else if d > st.maxDur {
				st.maxDur = d
			}
			if call.Start > st.maxStart {
				st.maxStart = call.Start
			}
			if call.Failed() {
				// A throwing success-run call has no usable return value.
				st.retConsistent = false
				continue
			}
			if !st.retSet {
				st.ret = call.Return
				st.retSet = true
			} else if !st.ret.Equal(call.Return) {
				st.retConsistent = false
			}
		}
	}
	return stats
}

// perCall emits the method-fails, too-slow, too-fast, starts-late and
// wrong-return predicates of every method instance in e.
func (en *engine) perCall(c *Corpus, row int, e *trace.Execution) {
	cfg := en.cfg
	for j := range e.Calls {
		call := &e.Calls[j]
		k := instKey{call.Method, call.Instance}
		ci := idsFor(en.ids, k)
		window := Occurrence{Start: call.Start, End: call.End, Thread: call.Thread}

		if call.Failed() {
			id := ci.fails
			h, ok := c.HandleOf(id)
			if !ok {
				h = c.AddPred(Predicate{
					ID: id, Kind: KindMethodFails,
					Methods: []string{k.m}, Instance: k.inst, Stamp: ByEnd,
					Repair: catchRepair(k, en.stats[k], cfg),
					Desc:   fmt.Sprintf("method %s (call #%d) throws %s", k.m, k.inst, call.Exception),
				})
			}
			c.SetOcc(row, h, window)
		}

		st := en.stats[k]
		if st == nil {
			continue // no success baseline for this instance
		}
		if call.Duration() > st.maxDur+cfg.DurationMargin {
			id := ci.slow
			h, ok := c.HandleOf(id)
			if !ok {
				h = c.AddPred(Predicate{
					ID: id, Kind: KindTooSlow,
					Methods: []string{k.m}, Instance: k.inst, Stamp: ByEnd,
					Repair: prematureRepair(k, st, cfg),
					Desc: fmt.Sprintf("method %s (call #%d) runs too slow (> %d ticks)",
						k.m, k.inst, st.maxDur),
				})
			}
			c.SetOcc(row, h, window)
		}
		if !call.Failed() && call.Duration() < st.minDur-cfg.DurationMargin {
			id := ci.fast
			h, ok := c.HandleOf(id)
			if !ok {
				h = c.AddPred(Predicate{
					ID: id, Kind: KindTooFast,
					Methods: []string{k.m}, Instance: k.inst, Stamp: ByEnd,
					Repair: Intervention{
						Kind: IvDelayReturn, Methods: []string{k.m},
						Delay: int64(st.minDur), Safe: true,
					},
					Desc: fmt.Sprintf("method %s (call #%d) runs too fast (< %d ticks)",
						k.m, k.inst, st.minDur),
				})
			}
			c.SetOcc(row, h, window)
		}
		// Lateness of a nested call is subsumed by its enclosing
		// span's behaviour; only thread-root spans carry a
		// meaningful scheduling-lateness signal (§4 Case 2: the
		// caller's late start causes the callee's).
		if call.Start > st.maxStart+cfg.DurationMargin && isThreadRoot(e, call) {
			id := ci.late
			h, ok := c.HandleOf(id)
			if !ok {
				h = c.AddPred(Predicate{
					ID: id, Kind: KindStartsLate,
					Methods: []string{k.m}, Instance: k.inst, Stamp: ByStart,
					// Lateness has no local repair (§4 Case 2): the cause
					// lies upstream, so the predicate is diagnostic only.
					Repair: Intervention{Kind: IvNone},
					Desc: fmt.Sprintf("method %s (call #%d) starts later than expected (> tick %d)",
						k.m, k.inst, st.maxStart),
				})
			}
			c.SetOcc(row, h, window)
		}
		if !call.Failed() && st.retSet && st.retConsistent && !st.ret.Void &&
			!call.Return.Void && !call.Return.Equal(st.ret) {
			id := ci.ret
			h, ok := c.HandleOf(id)
			if !ok {
				h = c.AddPred(Predicate{
					ID: id, Kind: KindWrongReturn,
					Methods: []string{k.m}, Instance: k.inst, Stamp: ByEnd,
					Repair: Intervention{
						Kind: IvOverrideReturn, Methods: []string{k.m},
						Value: st.ret.Int, Safe: cfg.sideEffectFree(k.m),
					},
					Desc: fmt.Sprintf("method %s (call #%d) returns incorrect value (correct: %s)",
						k.m, k.inst, st.ret),
				})
			}
			c.SetOcc(row, h, window)
		}
	}
}

func catchRepair(k instKey, st *succStats, cfg Config) Intervention {
	var val int64
	if st != nil && st.retSet && st.retConsistent && !st.ret.Void {
		val = st.ret.Int
	}
	return Intervention{
		Kind: IvCatchException, Methods: []string{k.m},
		Value: val, Safe: cfg.sideEffectFree(k.m),
	}
}

func prematureRepair(k instKey, st *succStats, cfg Config) Intervention {
	iv := Intervention{
		Kind: IvPrematureReturn, Methods: []string{k.m},
		Safe: cfg.sideEffectFree(k.m),
	}
	if st.retSet && st.retConsistent && !st.ret.Void {
		iv.Value = st.ret.Int
	} else {
		iv.Void = true
	}
	return iv
}

// accessWindow summarizes one span's accesses to one object: the time
// interval from its first to its last access, whether any access is a
// write, and the set of locks held by every access (a race needs one
// unprotected conflicting pair, so only locks held across the whole
// window rule a pair out).
type accessWindow struct {
	call     *trace.MethodCall
	start    trace.Time
	end      trace.Time
	hasWrite bool
	locks    []string // intersection of the window's access locksets
}

// raceScratch holds the race detector's reusable buffers, kept by the
// engine across rows (and, in an Extractor, across rounds) so
// steady-state replay extraction reuses the maps, the bucket backings,
// and the buffer behind the per-window locksets.
type raceScratch struct {
	winIdx    map[trace.ObjectID]int
	wins      []accessWindow
	bucketIdx map[trace.ObjectID]int
	buckets   [][]accessWindow
	objs      []trace.ObjectID
	// locks backs every window's lockset: each window takes a
	// capacity-capped sub-slice, so in-place intersection never
	// reaches a neighbor. It is rewound per execution, because windows
	// never outlive their execution's buckets.
	locks []string
}

func newRaceScratch() *raceScratch {
	return &raceScratch{
		winIdx:    make(map[trace.ObjectID]int),
		bucketIdx: make(map[trace.ObjectID]int),
	}
}

// races emits data-race predicates using access-window interleaving:
// two method invocations on different threads race on X when their
// access windows on X strictly interleave (each window's first access
// happens before the other's last access), at least one access is a
// write, and no common lock protects both windows. Strict interleaving
// captures the harmful schedules — e.g. two read-modify-write sections
// losing an update — while mere span-envelope overlap with disjoint
// access windows does not race.
func (en *engine) races(c *Corpus, row int, e *trace.Execution) {
	sc := en.race
	winIdx := sc.winIdx
	wins := sc.wins
	bucketIdx := sc.bucketIdx
	buckets := sc.buckets
	objs := sc.objs[:0]
	locks := sc.locks[:0]
	defer func() {
		sc.wins, sc.buckets, sc.objs, sc.locks = wins, buckets, objs, locks
	}()
	for j := range e.Calls {
		call := &e.Calls[j]
		clear(winIdx)
		wins = wins[:0]
		for a := range call.Accesses {
			acc := &call.Accesses[a]
			wi, ok := winIdx[acc.Object]
			if !ok {
				wi = len(wins)
				winIdx[acc.Object] = wi
				n := len(locks)
				locks = append(locks, acc.Locks...)
				wins = append(wins, accessWindow{
					call: call, start: acc.At, end: acc.At,
					locks: locks[n:len(locks):len(locks)],
				})
			} else {
				w := &wins[wi]
				if acc.At < w.start {
					w.start = acc.At
				}
				if acc.At > w.end {
					w.end = acc.At
				}
				w.locks = intersectInPlace(w.locks, acc.Locks)
			}
			if acc.Kind == trace.Write {
				wins[wi].hasWrite = true
			}
		}
		for obj, wi := range winIdx {
			bi, ok := bucketIdx[obj]
			if !ok {
				bi = len(buckets)
				bucketIdx[obj] = bi
				buckets = append(buckets, nil)
			}
			if len(buckets[bi]) == 0 {
				objs = append(objs, obj)
			}
			buckets[bi] = append(buckets[bi], wins[wi])
		}
	}
	slices.Sort(objs)
	for _, obj := range objs {
		ws := buckets[bucketIdx[obj]]
		for x := 0; x < len(ws); x++ {
			for y := x + 1; y < len(ws); y++ {
				a, b := &ws[x], &ws[y]
				if a.call.Thread == b.call.Thread {
					continue
				}
				if !a.hasWrite && !b.hasWrite {
					continue
				}
				// Strict interleaving: each window starts before the
				// other ends.
				if !(a.start < b.end && b.start < a.end) {
					continue
				}
				if sharesLock(a.locks, b.locks) {
					continue
				}
				m1, m2 := a.call.Method, b.call.Method
				if m1 > m2 {
					m1, m2 = m2, m1
				}
				id := ID("race:" + m1 + "|" + m2 + "@" + string(obj))
				h, ok := c.HandleOf(id)
				if !ok {
					h = c.AddPred(Predicate{
						ID: id, Kind: KindDataRace,
						Methods: dedupe(m1, m2), Object: obj, Stamp: ByStart,
						Repair: Intervention{
							Kind: IvLockMethods, Methods: dedupe(m1, m2), Safe: true,
						},
						Desc: "data race between " + m1 + " and " + m2 + " on " + string(obj),
					})
				}
				start := maxTime(a.start, b.start)
				end := minTime(a.end, b.end)
				// Merge with an earlier pair's window in this row (an
				// O(1) read: the column's last write is this row).
				if prev, ok := c.OccAt(row, h); ok {
					if prev.Start < start {
						start = prev.Start
					}
					if prev.End > end {
						end = prev.End
					}
				}
				c.SetOcc(row, h, Occurrence{Start: start, End: end, Thread: NoThread})
			}
		}
	}
	// Truncate this execution's buckets for reuse by the next one.
	for _, obj := range objs {
		bi := bucketIdx[obj]
		buckets[bi] = buckets[bi][:0]
	}
}

// intersectInPlace filters a down to the elements also present in b,
// reusing a's backing (a is always raceScratch-owned here).
func intersectInPlace(a, b []string) []string {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				a[n] = x
				n++
				break
			}
		}
	}
	return a[:n]
}

func sharesLock(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func dedupe(ms ...string) []string {
	var out []string
	for _, m := range ms {
		dup := false
		for _, o := range out {
			if o == m {
				dup = true
			}
		}
		if !dup {
			out = append(out, m)
		}
	}
	return out
}

func maxTime(a, b trace.Time) trace.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b trace.Time) trace.Time {
	if a < b {
		return a
	}
	return b
}

// Order violations are instance pairs (A, B) that are strictly ordered
// A-then-B in every successful execution; the predicate "B starts
// before A ends" holds wherever the order flips.
//
// Two restrictions keep the predicate set meaningful:
//
//   - Only leaf spans (instances that enclose no other same-thread span
//     in any successful run) participate: a non-leaf span's ordering
//     against another method is subsumed by its innermost child's, and
//     emitting both would create several overlapping order predicates
//     whose repairs are interchangeable — violating the
//     single-causal-path assumption AID relies on (§5.1).
//   - The pair must conflict on a shared object (both access some X,
//     at least one writing): without a data dependency, the relative
//     order of two methods cannot affect the outcome.

// orderState is the success-derived half of order-violation
// extraction: the baseline instance keys and the candidate pairs,
// which stayed strictly ordered in every success and conflict.
type orderState struct {
	keys   []instKey
	keyIdx map[instKey]int
	pairs  []orderPair
	// row is scratch: the current execution's calls by key index.
	row []*trace.MethodCall
}

// orderPair is a candidate pair of key indices (a then b), with its
// predicate ID interned on the first flip.
type orderPair struct {
	a, b int
	id   ID
}

// buildOrderState computes the order baseline from the successes, or
// nil when no order predicate can exist.
func buildOrderState(succs []*trace.Execution, stats map[instKey]*succStats) *orderState {
	if len(succs) == 0 {
		return nil
	}
	// Keys present in every success are order-baseline candidates.
	nonLeaf := nonLeafKeys(succs)
	var keys []instKey
	for k, st := range stats {
		if st.present == len(succs) && !nonLeaf[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].m != keys[j].m {
			return keys[i].m < keys[j].m
		}
		return keys[i].inst < keys[j].inst
	})
	nk := len(keys)
	if nk == 0 {
		return nil
	}
	st := &orderState{
		keys:   keys,
		keyIdx: make(map[instKey]int, nk),
	}
	for i, k := range keys {
		st.keyIdx[k] = i
	}
	succRows := make([][]*trace.MethodCall, len(succs))
	for si, e := range succs {
		succRows[si] = make([]*trace.MethodCall, nk)
		st.index(e, succRows[si])
	}
	// ordered[ai*nk+bi] = true while A ends before B starts in all
	// successes seen so far (flat matrix, not a struct-keyed map).
	ordered := make([]bool, nk*nk)
	for ai := 0; ai < nk; ai++ {
		for bi := 0; bi < nk; bi++ {
			if ai != bi {
				ordered[ai*nk+bi] = true
			}
		}
	}
	for _, row := range succRows {
		for ai := 0; ai < nk; ai++ {
			a := row[ai]
			for bi := 0; bi < nk; bi++ {
				if ai == bi || !ordered[ai*nk+bi] {
					continue
				}
				if b := row[bi]; a == nil || b == nil || a.End > b.Start {
					ordered[ai*nk+bi] = false
				}
			}
		}
	}
	profiles := accessProfiles(succRows, keys)
	for ai := 0; ai < nk; ai++ {
		for bi := 0; bi < nk; bi++ {
			if ordered[ai*nk+bi] && conflicting(profiles[ai], profiles[bi]) {
				st.pairs = append(st.pairs, orderPair{a: ai, b: bi})
			}
		}
	}
	if len(st.pairs) == 0 {
		return nil
	}
	st.row = make([]*trace.MethodCall, nk)
	return st
}

// index fills row (zeroed, one slot per baseline key) with e's calls:
// one pass per execution replaces a linear Execution.Call scan per
// (pair, execution) probe.
func (st *orderState) index(e *trace.Execution, row []*trace.MethodCall) {
	for ci := range e.Calls {
		call := &e.Calls[ci]
		if ki, ok := st.keyIdx[instKey{call.Method, call.Instance}]; ok {
			row[ki] = call
		}
	}
}

// orderFlips emits "B starts before A ends" for every candidate pair
// whose order flips in e.
func (en *engine) orderFlips(c *Corpus, row int, e *trace.Execution) {
	st := en.order
	if st == nil {
		return
	}
	calls := st.row
	clear(calls)
	st.index(e, calls)
	for i := range st.pairs {
		p := &st.pairs[i]
		a, b := calls[p.a], calls[p.b]
		if a == nil || b == nil || a.End <= b.Start {
			continue
		}
		ka, kb := st.keys[p.a], st.keys[p.b]
		if p.id == "" {
			p.id = ID("order:" + ka.String() + "<" + kb.String())
		}
		h, ok := c.HandleOf(p.id)
		if !ok {
			h = c.AddPred(Predicate{
				ID:      p.id,
				Kind:    KindOrderViolation,
				Methods: dedupe(ka.m, kb.m), Instance: ka.inst, Stamp: ByStart,
				Repair: Intervention{
					Kind: IvEnforceOrder, Methods: []string{ka.m, kb.m}, Safe: true,
				},
				Desc: fmt.Sprintf("%s starts before %s ends (expected order: %s then %s)",
					kb, ka, ka, kb),
			})
		}
		c.SetOcc(row, h, Occurrence{Start: b.Start, End: a.End, Thread: NoThread})
	}
}

// Atomicity violations (buildAtomState + engine.atomicity) find
// same-thread span pairs (A, B) both accessing an object X with no
// intervening remote write in any successful run, and emit a predicate
// where a remote write slips between them. The repair serializes the
// pair's common parent with the writer; without a common parent the
// violation cannot be safely repaired at method granularity and the
// intervention is marked unsafe.

// atomCand is a candidate atomicity pair: two same-thread spans with
// consecutive accesses to one object.
type atomCand struct {
	a, b instKey
	obj  trace.ObjectID
}

// atomState is the success-derived half of atomicity extraction,
// immutable once built. ids doubles as the candidate set: only
// success-established pairs can emit, so their predicate IDs are
// interned here once instead of per emission.
type atomState struct {
	ids               map[atomCand]ID
	violatedInSuccess map[atomCand]bool
}

// atomAccess is one object access in scanAtomicity's per-object
// sequence.
type atomAccess struct {
	call *trace.MethodCall
	at   trace.Time
	kind trace.AccessKind
}

// atomScratch holds scanAtomicity's per-object access buckets. The
// same objects recur in every trace of a corpus, so a persistent
// scratch retains the map and the bucket backings across executions
// and rounds, truncating instead of reallocating.
type atomScratch struct {
	byObj map[trace.ObjectID][]atomAccess
	// objs lists the objects the current execution touched, sorted
	// before the scan so candidates are reported in a fixed order.
	objs []trace.ObjectID
}

func newAtomScratch() *atomScratch {
	return &atomScratch{byObj: make(map[trace.ObjectID][]atomAccess)}
}

// scanAtomicity walks one execution's object-access sequences, object
// by object in ID order, and reports each candidate pair with whether a
// remote write intervened.
func scanAtomicity(e *trace.Execution, sc *atomScratch, record func(cd atomCand, violated bool, gapStart, gapEnd trace.Time)) {
	byObj := sc.byObj
	objs := sc.objs[:0]
	for j := range e.Calls {
		call := &e.Calls[j]
		for a := range call.Accesses {
			acc := &call.Accesses[a]
			accs := byObj[acc.Object]
			if len(accs) == 0 {
				objs = append(objs, acc.Object)
			}
			byObj[acc.Object] = append(accs, atomAccess{call, acc.At, acc.Kind})
		}
	}
	slices.Sort(objs)
	for _, obj := range objs {
		accs := byObj[obj]
		slices.SortFunc(accs, func(x, y atomAccess) int {
			switch {
			case x.at < y.at:
				return -1
			case x.at > y.at:
				return 1
			}
			return 0
		})
		for x := 0; x < len(accs); x++ {
			for y := x + 1; y < len(accs); y++ {
				a, b := accs[x], accs[y]
				if a.call.Thread != b.call.Thread || a.call == b.call {
					continue
				}
				cd := atomCand{
					a:   instKey{a.call.Method, a.call.Instance},
					b:   instKey{b.call.Method, b.call.Instance},
					obj: obj,
				}
				violated := false
				for z := x + 1; z < y; z++ {
					w := accs[z]
					if w.call.Thread != a.call.Thread && w.kind == trace.Write {
						violated = true
						break
					}
				}
				record(cd, violated, a.at, b.at)
				y = len(accs) // only the next foreign-span access matters
			}
		}
		// Truncate the bucket so the next execution appends into the
		// retained backing.
		byObj[obj] = accs[:0]
	}
	sc.objs = objs
}

// buildAtomState collects candidate pairs from the successes:
// consecutive same-thread accesses to the same object from two
// different spans.
func buildAtomState(succs []*trace.Execution) *atomState {
	st := &atomState{
		ids:               make(map[atomCand]ID),
		violatedInSuccess: make(map[atomCand]bool),
	}
	sc := newAtomScratch()
	for _, e := range succs {
		scanAtomicity(e, sc, func(cd atomCand, violated bool, _, _ trace.Time) {
			if _, ok := st.ids[cd]; !ok {
				st.ids[cd] = ID("atom:" + cd.a.String() + "," + cd.b.String() + "@" + string(cd.obj))
			}
			if violated {
				st.violatedInSuccess[cd] = true
			}
		})
	}
	return st
}

// atomicity emits a predicate wherever a remote write slips between a
// success-established candidate pair in e.
func (en *engine) atomicity(c *Corpus, row int, e *trace.Execution) {
	st := en.atom
	scanAtomicity(e, en.atomSc, func(cd atomCand, violated bool, gapStart, gapEnd trace.Time) {
		id, cand := st.ids[cd]
		if !violated || !cand || st.violatedInSuccess[cd] {
			return
		}
		h, ok := c.HandleOf(id)
		if !ok {
			parent := commonParent(e, cd.a, cd.b)
			repair := Intervention{Kind: IvNone}
			if parent != "" {
				repair = Intervention{
					Kind:    IvLockMethods,
					Methods: []string{parent},
					Safe:    true,
				}
			}
			h = c.AddPred(Predicate{
				ID: id, Kind: KindAtomicityViolation,
				Methods: dedupe(cd.a.m, cd.b.m), Object: cd.obj, Stamp: ByStart,
				Repair: repair,
				Desc: fmt.Sprintf("atomicity of %s then %s on %s violated by a remote write",
					cd.a, cd.b, cd.obj),
			})
		}
		c.SetOcc(row, h, Occurrence{Start: gapStart, End: gapEnd, Thread: NoThread})
	})
}

// isThreadRoot reports whether no other same-thread span strictly
// encloses the call.
func isThreadRoot(e *trace.Execution, call *trace.MethodCall) bool {
	for i := range e.Calls {
		p := &e.Calls[i]
		if p == call || p.Thread != call.Thread {
			continue
		}
		if p.Start <= call.Start && p.End >= call.End &&
			(p.Start < call.Start || p.End > call.End) {
			return false
		}
	}
	return true
}

// accessProfile records which objects an instance reads and writes.
type accessProfile struct {
	reads  map[trace.ObjectID]bool
	writes map[trace.ObjectID]bool
}

// accessProfiles unions each key's object accesses over the success
// rows (rows[s][ki] is success s's call for key ki), returning one
// profile per key index.
func accessProfiles(rows [][]*trace.MethodCall, keys []instKey) []accessProfile {
	out := make([]accessProfile, len(keys))
	for ki := range keys {
		p := accessProfile{
			reads:  make(map[trace.ObjectID]bool, 4),
			writes: make(map[trace.ObjectID]bool, 4),
		}
		for _, row := range rows {
			call := row[ki]
			if call == nil {
				continue
			}
			for _, a := range call.Accesses {
				if a.Kind == trace.Write {
					p.writes[a.Object] = true
				} else {
					p.reads[a.Object] = true
				}
			}
		}
		out[ki] = p
	}
	return out
}

// conflicting reports whether two profiles touch a common object with
// at least one write.
func conflicting(a, b accessProfile) bool {
	for obj := range a.writes {
		if b.reads[obj] || b.writes[obj] {
			return true
		}
	}
	for obj := range b.writes {
		if a.reads[obj] {
			return true
		}
	}
	return false
}

// nonLeafKeys finds every instance that strictly encloses another
// same-thread span in some success — one pass over each execution's
// span pairs instead of a per-key Execution.Call scan.
func nonLeafKeys(succs []*trace.Execution) map[instKey]bool {
	out := make(map[instKey]bool)
	for _, e := range succs {
		for i := range e.Calls {
			parent := &e.Calls[i]
			k := instKey{parent.Method, parent.Instance}
			if out[k] {
				continue
			}
			for j := range e.Calls {
				child := &e.Calls[j]
				if child == parent || child.Thread != parent.Thread {
					continue
				}
				if child.Start >= parent.Start && child.End <= parent.End &&
					(child.Start > parent.Start || child.End < parent.End) {
					out[k] = true
					break
				}
			}
		}
	}
	return out
}

// commonParent returns the innermost span of the pair's thread that
// encloses both instances, or "".
func commonParent(e *trace.Execution, a, b instKey) string {
	ca, cb := e.Call(a.m, a.inst), e.Call(b.m, b.inst)
	if ca == nil || cb == nil || ca.Thread != cb.Thread {
		return ""
	}
	var best *trace.MethodCall
	for i := range e.Calls {
		p := &e.Calls[i]
		if p.Thread != ca.Thread || p == ca || p == cb {
			continue
		}
		if p.Start <= ca.Start && p.End >= cb.End {
			if best == nil || p.Start > best.Start {
				best = p
			}
		}
	}
	if best == nil {
		return ""
	}
	return best.Method
}
