package core

import (
	"sort"

	"aid/internal/predicate"
)

// MemoEntry is one exportable scheduler memo: a forced-predicate group
// and the observations its intervention produced. Entries round-trip
// through JSON unchanged (all fields are plain data), which is how the
// daemon persists a SharedScheduler's cache across restarts.
type MemoEntry struct {
	Preds []predicate.ID `json:"preds"`
	Obs   []Observation  `json:"obs"`
}

// ExportMemo snapshots the completed outcome cache as memo entries, in
// canonical key order so identical caches export identical bytes.
// Entries that cannot safely be replayed into a fresh scheduler are
// skipped: the in-flight round and empty observation sets (failed
// outcomes never stay in the cache). Robust mode and NoCache export
// nothing — the robust cache is entangled with the
// verdict index, whose contradiction-repair history does not survive a
// round trip, and NoCache has no cache to export.
func (s *Scheduler) ExportMemo() []MemoEntry {
	if s.noCache || s.robust {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.cache))
	for k := range s.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]MemoEntry, 0, len(keys))
	for _, k := range keys {
		e := s.cache[k]
		if len(e.obs) == 0 || len(e.preds) == 0 {
			continue
		}
		out = append(out, MemoEntry{
			Preds: append([]predicate.ID(nil), e.preds...),
			Obs:   append([]Observation(nil), e.obs...),
		})
	}
	return out
}

// ImportMemo seeds the outcome cache with previously exported entries,
// returning how many were restored. A key already present wins over the
// import (the live outcome is at least as fresh), and malformed entries
// are skipped, never fatal — restoring a persisted memo follows the
// durability layer's warm-start rule: degrade, don't fail. Imports are
// refused (0) under NoCache and in robust mode, mirroring ExportMemo.
//
// Correctness rests on the caller honoring the Rebind contract: import
// only memos exported over an outcome-equivalent intervener (same
// program, corpus, seeds, and config), or the cache serves poison.
func (s *Scheduler) ImportMemo(entries []MemoEntry) int {
	if s.noCache || s.robust {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, me := range entries {
		if len(me.Preds) == 0 || len(me.Obs) == 0 {
			continue
		}
		key := canonKey(me.Preds)
		if _, ok := s.cache[key]; ok {
			continue
		}
		s.cache[key] = &outcomeEntry{
			obs:   append([]Observation(nil), me.Obs...),
			preds: append([]predicate.ID(nil), me.Preds...),
		}
		n++
	}
	return n
}
