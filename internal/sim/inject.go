package sim

import (
	"slices"
	"sort"

	"aid/internal/trace"
)

// MethodInjection alters the runtime behaviour of one method, realizing
// the intervention mechanisms of the paper's Fig. 2 without modifying
// program text (an LFI-style dynamic injector).
//
// Field combinations compose in entry order: WaitBefore, GlobalLocks,
// DelayStart, then the (possibly replaced) body; SignalAfter fires at
// completion regardless of how the body exits.
type MethodInjection struct {
	// GlobalLocks serialize every invocation of the method with any
	// other method injected with the same lock name — the intervention
	// for data races and atomicity violations ("put locks around the
	// code segments that access X"). Locks are acquired in sorted order
	// at entry, so simultaneous multi-lock injections cannot deadlock
	// against each other.
	GlobalLocks []string
	// DelayStart inserts a sleep at method entry — changes thread
	// timing/ordering ("insert delay").
	DelayStart trace.Time
	// DelayReturn inserts a sleep immediately before the method
	// completes — the intervention for "method runs too fast".
	DelayReturn trace.Time
	// ForceReturn short-circuits the body and returns the given value
	// immediately — the intervention for "method runs too slow"
	// ("prematurely return the correct value").
	ForceReturn *int64
	// ForceReturnVoid short-circuits a void method.
	ForceReturnVoid bool
	// OverrideReturn lets the body run but replaces its return value —
	// the intervention for "method returns incorrect value".
	OverrideReturn *int64
	// CatchExceptions absorbs any exception thrown by the body; the
	// span completes normally with CatchValue — the intervention for
	// "method M fails" ("put M in a try-catch block").
	CatchExceptions bool
	// CatchValue is the return value substituted when an exception is
	// absorbed.
	CatchValue int64
	// WaitBefore blocks the method at entry until each listed shared
	// variable equals its value — one half of order-enforcing
	// interventions. Multiple waits apply in list order.
	WaitBefore []Signal
	// SignalAfter sets each listed shared variable when the method
	// completes — the other half. The writes are injector-internal and
	// are not traced as program accesses.
	SignalAfter []Signal
}

// Signal names a shared variable and a value for order enforcement.
type Signal struct {
	Var string
	Val int64
}

// Plan maps method names to their injections for one intervened run.
type Plan map[string]MethodInjection

// Merge folds other into p in place; same-method entries compose:
// locks, waits and signals accumulate, delays take the maximum, and
// scalar overrides from other win. Merge writes only its receiver: a
// slice it stores in p from other is cloned first, so other is never
// aliased and never written, by this merge or a later one into p.
// Being a mutation, it must not target a plan already used in a run
// (see Prepare).
func (p Plan) Merge(other Plan) {
	for m, inj := range other {
		base, ok := p[m]
		if !ok {
			inj.GlobalLocks = slices.Clone(inj.GlobalLocks)
			inj.WaitBefore = slices.Clone(inj.WaitBefore)
			inj.SignalAfter = slices.Clone(inj.SignalAfter)
			p[m] = inj
			continue
		}
		base.GlobalLocks = appendUniqueStrings(base.GlobalLocks, inj.GlobalLocks)
		if inj.DelayStart > base.DelayStart {
			base.DelayStart = inj.DelayStart
		}
		if inj.DelayReturn > base.DelayReturn {
			base.DelayReturn = inj.DelayReturn
		}
		if inj.ForceReturn != nil {
			base.ForceReturn = inj.ForceReturn
		}
		if inj.ForceReturnVoid {
			base.ForceReturnVoid = true
		}
		if inj.OverrideReturn != nil {
			base.OverrideReturn = inj.OverrideReturn
		}
		if inj.CatchExceptions {
			base.CatchExceptions = true
			base.CatchValue = inj.CatchValue
		}
		base.WaitBefore = appendUniqueSignals(base.WaitBefore, inj.WaitBefore)
		base.SignalAfter = appendUniqueSignals(base.SignalAfter, inj.SignalAfter)
		p[m] = base
	}
}

// appendUniqueStrings merges src into dst, deduplicated and sorted:
// append-all, sort, compact — O((n+m)·log(n+m)) instead of the
// quadratic scan-per-element with a redundant sort per call.
func appendUniqueStrings(dst, src []string) []string {
	dst = append(dst, src...)
	sort.Strings(dst)
	out := dst[:0]
	for _, s := range dst {
		if len(out) == 0 || s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// appendUniqueSignals merges src into dst preserving first-occurrence
// order. Small lists (the common case: one or two order-enforcement
// signals) keep the allocation-free linear scan; larger merges switch
// to a set.
func appendUniqueSignals(dst, src []Signal) []Signal {
	if len(dst)+len(src) <= 8 {
		for _, s := range src {
			found := false
			for _, d := range dst {
				if d == s {
					found = true
					break
				}
			}
			if !found {
				dst = append(dst, s)
			}
		}
		return dst
	}
	seen := make(map[Signal]struct{}, len(dst)+len(src))
	for _, d := range dst {
		seen[d] = struct{}{}
	}
	for _, s := range src {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			dst = append(dst, s)
		}
	}
	return dst
}

// Empty reports whether the injection alters nothing.
func (i MethodInjection) Empty() bool {
	return len(i.GlobalLocks) == 0 && i.DelayStart == 0 && i.DelayReturn == 0 &&
		i.ForceReturn == nil && !i.ForceReturnVoid && i.OverrideReturn == nil &&
		!i.CatchExceptions && len(i.WaitBefore) == 0 && len(i.SignalAfter) == 0
}
