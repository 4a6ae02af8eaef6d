package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one session
// share its id; Parent is the id of the span that caused this one (0
// for a session's root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNs"` // since the recorder's epoch
	EndNS   int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory for the traced run; they are written
// out once, when the benchmark ends. Safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span and returns its id (ids start at 1).
func (r *recorder) add(session, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Session: session, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// setEnd closes a span opened with add before its end was known.
func (r *recorder) setEnd(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = end.Sub(r.epoch).Nanoseconds()
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	body, err := json.Marshal(struct {
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{r.epoch.UTC().Format(time.RFC3339Nano), r.snapshot()})
	if err != nil {
		return fmt.Errorf("trace: encode spans: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its direct children cover. Overlapping
// children are counted once, and a child sticking out of its parent is
// clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.StartNS
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(total)
}

// layerTimes sums, per session, the total and self time of the spans
// with each name, and returns per-name slices with one entry per
// session that has such a span.
func layerTimes(spans []span) (total, self map[string][]float64) {
	st := selfTimes(spans)
	type key struct {
		name    string
		session int
	}
	tot, slf := map[key]float64{}, map[key]float64{}
	var order []key
	for _, s := range spans {
		k := key{s.Name, s.Session}
		if _, seen := tot[k]; !seen {
			order = append(order, k)
		}
		tot[k] += ms(s.dur())
		slf[k] += ms(st[s.ID])
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, k := range order {
		total[k.name] = append(total[k.name], tot[k])
		self[k.name] = append(self[k.name], slf[k])
	}
	return total, self
}
