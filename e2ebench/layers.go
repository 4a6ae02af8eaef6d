package main

import (
	"time"

	"aid"
)

// stamp is one pipeline event and the time the benchmark saw it.
type stamp struct {
	at time.Time
	ev aid.Event
}

// stampObserver collects a run's events with their arrival times. The
// pipeline emits from one goroutine, so no locking is needed.
type stampObserver struct{ stamps []stamp }

func (o *stampObserver) OnEvent(e aid.Event) { o.stamps = append(o.stamps, stamp{time.Now(), e}) }

// stageNames are the spans a pipeline run is cut into, in order; each
// ends at the event that closes its stage.
var stageNames = []string{"sim.collect", "predicate.extract", "statdebug.rank", "acdag.build", "core.discover", "grouptest.tagt"}

// layerAcc gathers one value per traced session for each layer metric.
type layerAcc map[string][]float64

func (a layerAcc) add(name string, v float64) { a[name] = append(a[name], v) }

// recordRun cuts one pipeline run [t0, t1] into stage spans from its
// event stamps, as children of span parent, and adds the run's
// per-layer counts to acc. The spans tile [t0, t1], so they cover the
// run's wall time by construction. No event marks the end of TAGT, so
// the last span, grouptest.tagt, also holds the report assembly after
// it. explainDur, the separately timed Pipeline.Explain on the same
// result, becomes a child at the end of that span, so grouptest.tagt's
// self time excludes it. It reports whether every stage boundary was
// seen.
func recordRun(rec *recorder, acc layerAcc, session, parent int, t0, t1 time.Time, st []stamp, explainDur time.Duration) bool {
	bounds := []time.Time{t0}
	var rounds []time.Time
	batches := map[int]bool{}
	var seeds int64
	var preds, fully, nodes, cacheHits int
	for _, s := range st {
		switch e := s.ev.(type) {
		case aid.CollectProgress:
			seeds = e.SeedsSwept
		case aid.TracesCollected, aid.Ranked, aid.DAGBuilt:
			bounds = append(bounds, s.at)
		case aid.PredicatesExtracted:
			bounds = append(bounds, s.at)
			preds = e.Total
		case aid.RoundDone:
			rounds = append(rounds, s.at)
			batches[e.Batch] = true
			if e.CacheHit {
				cacheHits++
			}
		case aid.DiscoveryDone:
			bounds = append(bounds, s.at)
		}
		switch e := s.ev.(type) {
		case aid.Ranked:
			fully = e.FullyDiscriminative
		case aid.DAGBuilt:
			nodes = e.Nodes
		}
	}
	bounds = append(bounds, t1)
	if len(bounds) != len(stageNames)+1 {
		return false
	}
	var discoverID, tagtID int
	for i, name := range stageNames {
		id := rec.add(session, parent, name, bounds[i], bounds[i+1])
		switch name {
		case "core.discover":
			discoverID = id
		case "grouptest.tagt":
			tagtID = id
		}
	}
	prev := bounds[4]
	for _, at := range rounds {
		rec.add(session, discoverID, "core.round", prev, at)
		prev = at
	}
	if explainDur > 0 {
		rec.add(session, tagtID, "explain", t1.Add(-explainDur), t1)
	}
	acc.add("sim.seeds_swept", float64(seeds))
	acc.add("predicate.preds", float64(preds))
	acc.add("statdebug.fully_discriminative", float64(fully))
	acc.add("acdag.nodes", float64(nodes))
	acc.add("core.rounds", float64(len(rounds)))
	acc.add("core.batches", float64(len(batches)))
	acc.add("core.cache_hits", float64(cacheHits))
	return true
}

// stageLayers fills the time metrics of the stage spans recorded by
// recordRun: each layer's mean time per traced session, the TAGT span's
// self time (explain excluded) and the median round.
func stageLayers(spans []span, layers map[string]float64) {
	total, self := layerTimes(spans)
	layers["sim.collect_ms"] = mean(total["sim.collect"])
	layers["predicate.extract_ms"] = mean(total["predicate.extract"])
	layers["statdebug.rank_ms"] = mean(total["statdebug.rank"])
	layers["acdag.build_ms"] = mean(total["acdag.build"])
	layers["core.discover_ms"] = mean(total["core.discover"])
	layers["grouptest.tagt_ms"] = mean(self["grouptest.tagt"])
	layers["explain.ms"] = mean(total["explain"])
	var rounds []float64
	for _, s := range spans {
		if s.Name == "core.round" {
			rounds = append(rounds, ms(s.dur()))
		}
	}
	layers["core.round_ms_p50"] = median(rounds)
}

// means folds the accumulated per-session values into their means.
func (a layerAcc) means(layers map[string]float64) {
	for name, vs := range a {
		layers[name] = mean(vs)
	}
}
