package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"aid"
	"aid/internal/durable"
	"aid/internal/service"
)

// daemon-mixed: an open loop of seeded Poisson arrivals at a fixed rate,
// sent in-process through the daemon's HTTP handler (no sockets) by
// three tenants, one of them heavy. The traffic mixes repeat specs
// (result-cache or memo hits), novel specs with a fresh seed (cold),
// offline sessions over uploaded corpora, and corpus re-uploads that
// invalidate the memos and cached results built over them.

// daemonRate is the arrival rate in sessions and uploads per second:
// half the sustainable rate of this mix measured on a 2-CPU host (80/s
// met the latency limit with nothing refused; at 100/s the heavy tenant
// began to hit its admission cap, and at 140/s 13% were refused).
const daemonRate = 40.0

// The traffic mix, as shares of arrivals.
const (
	shareRepeat  = 0.55
	shareNovel   = 0.15
	shareOffline = 0.20
	// the rest (0.10) are corpus re-uploads
)

// daemonResultCacheCap is the per-tenant result cache size: half a
// tenant's repeat and offline specs, so many repeats fall back to the
// scheduler memo and about 40% of sessions are served from the cache.
const daemonResultCacheCap = 2

var daemonTenants = []struct {
	name   string
	weight float64
}{{"alpha", 0.6}, {"beta", 0.25}, {"gamma", 0.15}}

// daemonStudies are the studies daemon traffic asks about. Both cost
// about the same cold (17-18 ms), so a session's latency tells how it
// was served (result cache, memo, cold, queued) rather than which study
// it drew; with all six, the median would sit in the gap between the
// fast and slow studies and jump between them from run to run.
var daemonStudies = []string{"kafka", "cosmosdb"}

// offlineStudies have an uploaded corpus per tenant, named after them.
var offlineStudies = daemonStudies

type arrival struct {
	at     time.Duration // due time after the loop starts
	tenant string
	upload bool
	spec   service.SessionSpec
	body   []byte // a session's POST body, encoded before the window
}

func (a arrival) key() string {
	return fmt.Sprintf("%s|%s|%d", a.spec.Study, a.spec.Corpus, a.spec.Seed)
}

// daemonPlan draws the arrivals for a run: n = rate × duration due
// times spread uniformly over the window (a Poisson process conditioned
// on its count, so every seed offers the same load). Tenants, traffic
// kinds and studies are dealt in exact proportions and shuffled, so a
// seed changes the order of the traffic but not its make-up.
func daemonPlan(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * d.Seconds())
	studies := daemonStudies
	// deal returns n draws from the weights in exact proportion
	// (largest remainders first), shuffled.
	deal := func(weights []float64) []int {
		out := make([]int, 0, n)
		for k, w := range weights {
			for j := 0; j < int(w*float64(n)+0.5) && len(out) < n; j++ {
				out = append(out, k)
			}
		}
		for len(out) < n {
			out = append(out, 0)
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var tw []float64
	for _, t := range daemonTenants {
		tw = append(tw, t.weight)
	}
	tenants := deal(tw)
	kinds := deal([]float64{shareRepeat, shareNovel, shareOffline, 1 - shareRepeat - shareNovel - shareOffline})
	plan := make([]arrival, n)
	var next [4]int // per kind: how many dealt so far, to rotate studies
	for i := range plan {
		a := &plan[i]
		a.at = time.Duration(rng.Int63n(int64(d)))
		a.tenant = daemonTenants[tenants[i]].name
		k := kinds[i]
		j := next[k]
		next[k]++
		switch k {
		case 0: // repeat
			a.spec = service.SessionSpec{Study: studies[j%len(studies)]}
		case 1: // novel
			a.spec = service.SessionSpec{Study: studies[j%len(studies)], Seed: 2 + rng.Int63n(1<<31)}
		case 2: // offline
			s := offlineStudies[j%len(offlineStudies)]
			a.spec = service.SessionSpec{Study: s, Corpus: s}
		default: // corpus re-upload
			a.upload = true
			a.spec.Corpus = offlineStudies[j%len(offlineStudies)]
		}
		if !a.upload {
			a.body, _ = json.Marshal(a.spec) // a SessionSpec always encodes
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	return plan
}

// daemonPrep is the run's untimed preparation: the uploaded corpora,
// every spec's expected report bytes from a direct Pipeline.Run, and a
// memo journal for set-up to recover.
type daemonPrep struct {
	corpora  map[string][]byte // study → JSON-lines corpus
	expected map[string][]byte // arrival key → report JSON
	journal  []byte
}

func prepareDaemon(ctx context.Context, dir string, plan []arrival, workers int) (*daemonPrep, error) {
	p := &daemonPrep{corpora: map[string][]byte{}, expected: map[string][]byte{}}
	files := map[string]string{}
	for _, name := range offlineStudies {
		tr, err := aid.New().Collect(ctx, aid.FromStudy(aid.CaseStudyByName(name)))
		if err != nil {
			return nil, err
		}
		files[name] = filepath.Join(dir, "corpus-"+name+".jsonl")
		if err := aid.WriteTraces(files[name], tr); err != nil {
			return nil, err
		}
		if p.corpora[name], err = os.ReadFile(files[name]); err != nil {
			return nil, err
		}
	}
	for _, a := range plan {
		if a.upload || p.expected[a.key()] != nil {
			continue
		}
		st := aid.CaseStudyByName(a.spec.Study)
		var src aid.TraceSource = aid.FromStudy(st)
		if a.spec.Corpus != "" {
			src = aid.FromTraceFile(files[a.spec.Corpus]).ForStudy(st)
		}
		var opts []aid.Option
		if a.spec.Seed != 0 {
			opts = append(opts, aid.WithSeed(a.spec.Seed))
		}
		rep, err := aid.New(opts...).Run(ctx, src)
		if err != nil {
			return nil, fmt.Errorf("expected report for %s: %w", a.key(), err)
		}
		if p.expected[a.key()], err = rep.JSON(); err != nil {
			return nil, err
		}
	}

	// The journal a restarted daemon would find: every tenant's repeat
	// specs run once, then a graceful drain compacts the memo log.
	jdir := filepath.Join(dir, "journal")
	m := service.NewManager(daemonConfig(jdir, workers))
	for _, t := range daemonTenants {
		for _, st := range daemonStudies {
			s, err := m.Start(t.name, service.SessionSpec{Study: st})
			if err != nil {
				return nil, err
			}
			<-s.Done()
		}
	}
	if err := m.Shutdown(ctx); err != nil {
		return nil, err
	}
	var err error
	p.journal, err = os.ReadFile(filepath.Join(jdir, "memo.log"))
	return p, err
}

// daemonTenantCap bounds each tenant's queued and running sessions.
// The default, 8, is a third of a second of the heavy tenant's
// arrivals: a Poisson burst during a host stall of that length was
// refused even at this light load, in a traced run. Twice that leaves
// refusals to real saturation.
const daemonTenantCap = 16

// daemonConfig is the manager under test. The memo log syncs in
// batches (at compaction and close) rather than on every append: the
// journaling work itself is kept, but a per-session fsync would time
// the host's shared disk instead of the program.
func daemonConfig(persistDir string, workers int) service.Config {
	return service.Config{
		SessionBudget:  workers,
		TenantCap:      daemonTenantCap,
		ResultCacheCap: daemonResultCacheCap,
		PersistDir:     persistDir,
		Fsync:          durable.SyncBatch,
	}
}

// daemonState is one set-up daemon.
type daemonState struct {
	mgr      *service.Manager
	h        http.Handler
	dir      string
	recovery time.Duration
	ingests  []float64 // ms per set-up upload
}

// daemonSetup restarts the daemon over a copy of the prepared journal
// (recovery), uploads every tenant's corpora, and warms up with one
// session per tenant.
func daemonSetup(ctx context.Context, dir string, prep *daemonPrep, workers int) (*daemonState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "memo.log"), prep.journal, 0o644); err != nil {
		return nil, err
	}
	st := &daemonState{dir: dir}
	t0 := time.Now()
	st.mgr = service.NewManager(daemonConfig(dir, workers))
	st.recovery = time.Since(t0)
	st.h = service.NewHandler(st.mgr)
	for _, t := range daemonTenants {
		for _, name := range offlineStudies {
			code, d, _ := st.call(http.MethodPut, "/v1/tenants/"+t.name+"/corpora/"+name, prep.corpora[name])
			if code != http.StatusCreated {
				st.close(ctx)
				return nil, fmt.Errorf("upload %s/%s: HTTP %d", t.name, name, code)
			}
			st.ingests = append(st.ingests, ms(d))
		}
	}
	for _, t := range daemonTenants {
		s, err := st.mgr.Start(t.name, service.SessionSpec{Study: daemonStudies[0]})
		if err != nil {
			st.close(ctx)
			return nil, err
		}
		<-s.Done()
	}
	return st, nil
}

func (st *daemonState) close(ctx context.Context) {
	st.mgr.Shutdown(ctx)
	os.RemoveAll(st.dir)
}

// call serves one request in-process and returns the status, the time
// spent in ServeHTTP and the body.
func (st *daemonState) call(method, path string, body []byte) (int, time.Duration, []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	st.h.ServeHTTP(rec, req)
	return rec.Code, time.Since(t0), rec.Body.Bytes()
}

// daemonSample is what one daemon session adds to the service layer's
// metrics.
type daemonSample struct {
	post, report  time.Duration
	queue, runDur time.Duration
	cacheHit      bool
	memoReq       int
	memoHit       int
}

func runDaemonMixed(ctx context.Context, cfg config, rec *recorder) (*outcome, error) {
	plan := daemonPlan(cfg.seed, daemonRate, cfg.duration)
	prep, err := prepareDaemon(ctx, cfg.workDir, plan, cfg.workers)
	if err != nil {
		return nil, err
	}
	var recoveries []float64
	setups, st, err := timedSetups(func() (*daemonState, error) {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("daemon-%d", len(recoveries)))
		st, err := daemonSetup(ctx, dir, prep, cfg.workers)
		if err == nil {
			recoveries = append(recoveries, ms(st.recovery))
		}
		return st, err
	}, func(s *daemonState) { s.close(ctx) })
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, countWindow: len(plan)}

	var (
		mu      sync.Mutex
		samples []daemonSample
		lags    = make([]float64, 0, len(plan))
		ingests = slices.Clone(st.ingests)
		wg      sync.WaitGroup
		acc     = layerAcc{}
		traced  []float64
		plain   []float64
	)
	finish := func(s sessionRec, ds daemonSample, mismatch string) {
		mu.Lock()
		defer mu.Unlock()
		out.samples = append(out.samples, s)
		if mismatch != "" {
			out.mismatches = append(out.mismatches, mismatch)
		}
		if s.answered() {
			samples = append(samples, ds)
			if cfg.trace && s.traced {
				traced = append(traced, ms(s.latency))
			} else {
				plain = append(plain, ms(s.latency))
			}
		}
	}

	mw := startMemWatch()
	start := time.Now()
	out.start = start
	for i, a := range plan {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		lags = append(lags, ms(time.Since(due)))
		if a.upload {
			// Uploads come from their own clients: a slow ingest must not
			// hold up the sends due after it.
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, d, _ := st.call(http.MethodPut, "/v1/tenants/"+a.tenant+"/corpora/"+a.spec.Corpus, prep.corpora[a.spec.Corpus])
				mu.Lock()
				defer mu.Unlock()
				out.extraOps++
				if code != http.StatusCreated {
					out.extraFailed++
					out.mismatches = append(out.mismatches, fmt.Sprintf("arrival %d: upload HTTP %d", i, code))
				}
				ingests = append(ingests, ms(d))
			}()
			continue
		}
		sent := time.Now()
		code, post, resp := st.call(http.MethodPost, "/v1/tenants/"+a.tenant+"/sessions", a.body)
		s := sessionRec{seq: i, traced: cfg.trace && i%2 == 1}
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.refused = true
			finish(s, daemonSample{}, "")
			continue
		}
		var status service.SessionStatus
		if code != http.StatusAccepted || json.Unmarshal(resp, &status) != nil {
			s.errored = true
			finish(s, daemonSample{}, fmt.Sprintf("arrival %d: POST HTTP %d: %s", i, code, resp))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, ds, mismatch := awaitSession(st, rec, acc, &mu, status.ID, due, sent, post, s, prep.expected[a.key()], cfg.trace)
			finish(s, ds, mismatch)
		}()
	}
	wg.Wait()
	out.window = time.Since(start)
	out.mallocs, out.heapPeak = mw.finish()

	stats := st.mgr.Stats()
	var logBytes int64
	if fi, err := os.Stat(filepath.Join(st.dir, "memo.log")); err == nil {
		logBytes = fi.Size()
	}
	st.close(ctx)

	if cfg.trace {
		out.layers = map[string]float64{}
		acc.means(out.layers)
		stageLayers(rec.snapshot(), out.layers)
		var posts, reports, queues, runs []float64
		var hits, memoReq, memoHit int
		for _, d := range samples {
			posts = append(posts, ms(d.post))
			reports = append(reports, ms(d.report))
			queues = append(queues, ms(d.queue))
			runs = append(runs, ms(d.runDur))
			if d.cacheHit {
				hits++
			}
			memoReq += d.memoReq
			memoHit += d.memoHit
		}
		l := out.layers
		l["service.http_post_ms_p50"] = median(posts)
		l["service.report_ms_p50"] = median(reports)
		l["service.ingest_ms_p50"] = median(ingests)
		if l["service.queue_wait_ms_p90"], err = percentile(queues, 0.9); err != nil {
			return nil, fmt.Errorf("service.queue_wait_ms_p90: %w", err)
		}
		if l["bench.generator_lag_p90_ms"], err = percentile(lags, 0.9); err != nil {
			return nil, fmt.Errorf("bench.generator_lag_p90_ms: %w", err)
		}
		l["service.run_ms_p50"] = median(runs)
		l["service.result_cache_hit_frac"] = float64(hits) / float64(max(len(samples), 1))
		if memoReq > 0 {
			l["service.memo_hit_frac"] = float64(memoHit) / float64(memoReq)
		}
		t := score(out)
		l["service.refused"] = float64(t.refused)
		l["durable.recovery_ms"] = median(recoveries)
		l["durable.persist_errors"] = float64(stats.PersistErrors)
		l["durable.log_bytes"] = float64(logBytes)
		l["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
		l["bench.traced_sessions"] = float64(len(traced))
	}
	return out, nil
}

// reportCounts is the part of a report the benchmark reads back.
type reportCounts struct {
	AIDInterventions  int `json:"aidInterventions"`
	TAGTInterventions int `json:"tagtInterventions"`
}

// awaitSession waits for an admitted session, then fetches and checks
// its report. A traced session is followed through its event stream
// instead, stamping each event line as it arrives; in a traced run the
// session's status also gives the service-layer timings. The harness
// keeps its own work per session small, so allocs_per_session stays
// mostly the program's.
func awaitSession(st *daemonState, rec *recorder, acc layerAcc, mu *sync.Mutex, id string, due, sent time.Time, post time.Duration, s sessionRec, want []byte, trace bool) (sessionRec, daemonSample, string) {
	ds := daemonSample{post: post}
	sess, ok := st.mgr.Session(id)
	if !ok {
		s.errored = true
		return s, ds, fmt.Sprintf("session %s vanished", id)
	}
	var sw *stampWriter
	if s.traced {
		sw = &stampWriter{header: http.Header{}}
		st.h.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/events", nil))
	} else {
		<-sess.Done()
	}
	code, d, body := st.call(http.MethodGet, "/v1/sessions/"+id+"/report", nil)
	received := time.Now()
	s.latency, s.end = openLoopLatency(due, received), received
	ds.report = d
	if code != http.StatusOK {
		s.errored = true
		return s, ds, fmt.Sprintf("session %s: report HTTP %d: %s", id, code, body)
	}
	if !bytes.Equal(body, want) {
		s.wrong = true
		return s, ds, fmt.Sprintf("session %s: report differs from a direct Pipeline.Run of its spec", id)
	}
	var r reportCounts
	if err := json.Unmarshal(body, &r); err != nil {
		s.errored = true
		return s, ds, fmt.Sprintf("session %s: %v", id, err)
	}
	s.aid, s.tagt = r.AIDInterventions, r.TAGTInterventions
	if !trace {
		return s, ds, ""
	}

	status := sess.Status()
	created, err1 := time.Parse(time.RFC3339Nano, status.Created)
	started, err2 := time.Parse(time.RFC3339Nano, status.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, status.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		s.errored = true
		return s, ds, fmt.Sprintf("session %s: status times: %v", id, err)
	}
	ds.queue, ds.runDur = started.Sub(created), finished.Sub(started)
	ds.cacheHit = status.ResultCacheHit
	ds.memoReq, ds.memoHit = status.SchedulerRequests, status.SchedulerCacheHits

	if s.traced {
		root := rec.add(s.seq, 0, "daemon.session", due, received)
		rec.add(s.seq, root, "service.http_post", sent, sent.Add(post))
		rec.add(s.seq, root, "service.queue_wait", created, started)
		run := rec.add(s.seq, root, "service.run", started, finished)
		rec.add(s.seq, root, "service.report", received.Add(-d), received)
		if !status.ResultCacheHit {
			// Result-cache hits replay their events at once; only
			// sessions that ran a pipeline have stage timings.
			mu.Lock()
			staged := recordRun(rec, acc, s.seq, run, started, finished, sw.stamps, 0)
			acc.add("grouptest.tests", float64(r.TAGTInterventions))
			mu.Unlock()
			if !staged {
				return s, ds, fmt.Sprintf("session %s: event stream lacks a stage boundary", id)
			}
		}
	}
	return s, ds, ""
}

// stampWriter is the ResponseWriter of a traced session's event
// stream: it decodes each JSON line as it is written and stamps it.
type stampWriter struct {
	header http.Header
	buf    []byte
	stamps []stamp
}

func (w *stampWriter) Header() http.Header { return w.header }
func (w *stampWriter) WriteHeader(int)     {}
func (w *stampWriter) Flush()              {}

func (w *stampWriter) Write(p []byte) (int, error) {
	now := time.Now()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		if ev, err := aid.UnmarshalEvent(w.buf[:i]); err == nil {
			w.stamps = append(w.stamps, stamp{now, ev})
		}
		w.buf = w.buf[i+1:]
	}
}
