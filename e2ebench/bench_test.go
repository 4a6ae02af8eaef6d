package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	got, err := percentile(seq(100), 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(seq(20), 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	rec := &recorder{epoch: at(0)}
	root := rec.add(1, 0, "session", at(0), at(100))
	a := rec.add(1, root, "a", at(10), at(30))
	rec.add(1, root, "b", at(20), at(50))  // overlaps a: the union counts once
	rec.add(1, root, "c", at(90), at(120)) // sticks out: clipped to the parent
	rec.add(1, a, "a.child", at(12), at(18))
	self := selfTimes(rec.snapshot())
	if want := 50 * time.Millisecond; self[root] != want {
		t.Errorf("root self time = %v, want %v (100 minus the union 10-50 and 90-100)", self[root], want)
	}
	if want := 14 * time.Millisecond; self[a] != want {
		t.Errorf("a self time = %v, want %v", self[a], want)
	}
	total, selfByName := layerTimes(rec.snapshot())
	if total["session"][0] != 100 || selfByName["session"][0] != 50 {
		t.Errorf("layerTimes session = %v total, %v self; want 100 and 50", total["session"], selfByName["session"])
	}
}

func TestSlicedPercentileIsMedianOfSlices(t *testing.T) {
	start := time.Unix(0, 0)
	out := &outcome{start: start, window: windowSlices * time.Second}
	// Slice k holds 20 sessions of latency k+1 ms, except slice 1, a
	// stall, at 100 ms; an answer after the window joins the last slice.
	var perSlice []float64
	for k := 0; k < windowSlices; k++ {
		lat := time.Duration(k+1) * time.Millisecond
		if k == 1 {
			lat = 100 * time.Millisecond
		}
		perSlice = append(perSlice, ms(lat))
		for j := 0; j < 20; j++ {
			end := start.Add(time.Duration(k)*time.Second + time.Duration(j)*time.Millisecond)
			out.samples = append(out.samples, sessionRec{latency: lat, end: end})
		}
	}
	out.samples = append(out.samples,
		sessionRec{latency: time.Duration(windowSlices) * time.Millisecond, end: start.Add(3 * out.window)},
		sessionRec{refused: true})
	parts := sliced(out)
	if len(parts[windowSlices-1]) != 21 {
		t.Errorf("last slice has %d sessions, want 21 (the late answer joins it)", len(parts[windowSlices-1]))
	}
	got, err := slicedPercentile(parts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := median(perSlice); got != want || got == 100 {
		t.Errorf("sliced p50 = %v, want %v: the stalled slice must not move the median", got, want)
	}
	if _, err := slicedPercentile(parts, 0.9); err == nil {
		t.Error("p90 of 20-session slices must be refused")
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(30 * time.Millisecond) // the generator ran late
	received := sent.Add(20 * time.Millisecond)
	if got, want := openLoopLatency(due, received), 50*time.Millisecond; got != want {
		t.Errorf("latency = %v, want %v: the wait before sending must be charged", got, want)
	}
}

func TestErrorFracCountsRefusals(t *testing.T) {
	out := &outcome{samples: []sessionRec{
		{latency: time.Millisecond},
		{latency: 2 * time.Millisecond},
		{latency: time.Second}, // correct but over the limit
		{refused: true},        // 429: attempted, failed, an SLO miss
		{latency: time.Millisecond, wrong: true},
	}}
	tl := score(out)
	if tl.attempted != 5 {
		t.Fatalf("attempted = %d, want 5: refusals are attempts", tl.attempted)
	}
	if got, want := errorFrac(tl.failed(), tl.attempted), 2.0/5; got != want {
		t.Errorf("error_frac = %v, want %v", got, want)
	}
	if got, want := tl.sloMetFrac(), 2.0/5; got != want {
		t.Errorf("slo_met_frac = %v, want %v", got, want)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	conv := func(xs []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, x := range xs {
			out = append(out, metricDef{x.Name, x.Unit})
		}
		return out
	}
	if got := conv(b.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program prints %v", got, endToEndMetrics)
	}
	if got := conv(b.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, program prints %v", got, perLayerMetrics)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

func TestPlansFollowTheSeed(t *testing.T) {
	a := daemonPlan(7, 30, 5*time.Second)
	b := daemonPlan(7, 30, 5*time.Second)
	c := daemonPlan(8, 30, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two daemon plans")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one daemon plan")
	}
	if len(a) != 150 {
		t.Errorf("plan has %d arrivals, want rate × seconds = 150", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	p1, err := synthSetup(7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := synthSetup(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i].algoSeed != p2[i].algoSeed || !reflect.DeepEqual(p1[i].inst.World.Path, p2[i].inst.World.Path) {
			t.Fatalf("instance %d differs between two set-ups with one seed", i)
		}
	}
}
