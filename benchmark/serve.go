package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"adaptnoc"
	"adaptnoc/internal/serve"
)

// repeatNum / repeatDen is the share of requests that resubmit a request
// that has already completed, served from the result cache without
// simulating. It is the memoization share of the repository's own
// experiments: of the 265 evaluations the quick suite (every non-local
// unit of exp.Units with Quick) hands to its evaluator, 31 repeat the
// request key of an earlier one. TestRepeatShare re-derives it.
const repeatNum, repeatDen = 31, 265

// isRepeat reports whether a client's i-th request is a repeat. Repeats
// are spread evenly, so every prefix of a client's requests holds the
// share, rounded down; the first request never is one.
func isRepeat(i int) bool { return (i+1)*repeatNum/repeatDen > i*repeatNum/repeatDen }

// directRuns is how many of client 0's first distinct requests the traced
// run also simulates in process, to check the served Results and to
// measure what the serving layer adds to a job.
const directRuns = 5

// jobRequest is the serve workload's unit: a short adapt-noc mixed run.
func jobRequest(seed uint64, sz sizes) (serve.Request, error) {
	cfg, err := mixedConfig(seed, sz.jobEpoch)
	return serve.Request{Config: cfg, Cycles: adaptnoc.Cycle(sz.jobCycles)}, err
}

// jobSeed derives a distinct request seed for client c's i-th request.
func jobSeed(seed uint64, c, i int) uint64 {
	return splitmix(seed ^ splitmix(uint64(c)<<32|uint64(i)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// client is one closed-loop caller with its own single connection.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends one request and returns the whole body; any non-2xx status is
// an error.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading the body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// jobResult is one completed job as its client saw it.
type jobResult struct {
	latency, submit, wait, fetch float64 // seconds
	hit                          bool
	key                          string
	results                      []byte
}

// job submits one request, waits for it on the SSE stream, and fetches
// its results. A cache hit answers the submission with the results, so it
// neither waits nor fetches.
func (c *client) job(body []byte) (jobResult, error) {
	var jr jobResult
	t0 := time.Now()
	data, err := c.do(http.MethodPost, "/v1/sims", body)
	if err != nil {
		return jr, err
	}
	var info serve.JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return jr, fmt.Errorf("decoding the submission reply: %w", err)
	}
	t1 := time.Now()
	t2 := t1
	if !info.State.Terminal() {
		stream, err := c.do(http.MethodGet, "/v1/jobs/"+info.ID+"/events", nil)
		if err != nil {
			return jr, err
		}
		if !bytes.Contains(stream, []byte("event: done")) {
			return jr, fmt.Errorf("job %s: event stream ended without a done event", info.ID)
		}
		t2 = time.Now()
		data, err := c.do(http.MethodGet, "/v1/jobs/"+info.ID, nil)
		if err != nil {
			return jr, err
		}
		info = serve.JobInfo{}
		if err := json.Unmarshal(data, &info); err != nil {
			return jr, fmt.Errorf("decoding job %s: %w", info.ID, err)
		}
	}
	t3 := time.Now()
	if info.State != serve.StateDone {
		return jr, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	// The reply indents the embedded Results document; compacting it gives
	// back the bytes the server stored, which json.Marshal produced.
	var doc bytes.Buffer
	if err := json.Compact(&doc, info.Results); err != nil {
		return jr, fmt.Errorf("job %s: results: %w", info.ID, err)
	}
	return jobResult{
		latency: t3.Sub(t0).Seconds(),
		submit:  t1.Sub(t0).Seconds(),
		wait:    t2.Sub(t1).Seconds(),
		fetch:   t3.Sub(t2).Seconds(),
		hit:     info.Cache == "hit",
		key:     info.Key,
		results: doc.Bytes(),
	}, nil
}

// loadState is what the closed loop's clients share.
type loadState struct {
	mu       sync.Mutex
	jobs     []jobResult // the warm-up round's, then the timed loop's
	errs     []error
	done     [][]byte          // bodies of completed misses, candidates to repeat
	byKey    map[string][]byte // results of each completed miss
	requests [][]byte          // client 0's first directRuns distinct bodies
	first    []byte            // results of client 0's first request
}

func (ls *loadState) fail(err error) {
	ls.mu.Lock()
	ls.errs = append(ls.errs, err)
	ls.mu.Unlock()
}

// drive runs every client as a closed-loop caller from its from-th
// request on, while more allows, and waits for all of them.
func drive(p params, clients []*client, ls *loadState, from int, more func(i int) bool) {
	var wg sync.WaitGroup
	for id, c := range clients {
		wg.Add(1)
		go func(id int, c *client) {
			defer wg.Done()
			runClient(p, c, id, ls, from, more)
		}(id, c)
	}
	wg.Wait()
}

// runClient is one closed-loop caller: it sends its next request only
// after the previous one completed.
func runClient(p params, c *client, id int, ls *loadState, from int, more func(i int) bool) {
	rng := splitmix(p.seed ^ uint64(id+1)<<48 ^ uint64(from))
	for i := from; more(i); i++ {
		var body []byte
		repeated := isRepeat(i)
		if repeated {
			rng = splitmix(rng)
			ls.mu.Lock()
			if n := len(ls.done); n > 0 {
				body = ls.done[rng%uint64(n)]
			}
			ls.mu.Unlock()
		}
		if body == nil {
			repeated = false
			req, err := jobRequest(jobSeed(p.seed, id, i), p.sizes)
			if err != nil {
				ls.fail(err)
				return
			}
			if body, err = json.Marshal(req); err != nil {
				ls.fail(err)
				return
			}
			if id == 0 {
				ls.mu.Lock()
				if len(ls.requests) < directRuns {
					ls.requests = append(ls.requests, body)
				}
				ls.mu.Unlock()
			}
		}
		jr, err := c.job(body)
		if err != nil {
			ls.fail(err)
			continue
		}
		ls.mu.Lock()
		ls.jobs = append(ls.jobs, jr)
		if id == 0 && i == 0 {
			ls.first = jr.results
		}
		prev, seen := ls.byKey[jr.key]
		switch {
		case repeated && !jr.hit:
			ls.errs = append(ls.errs, fmt.Errorf("a repeat of completed request %s missed the cache", jr.key))
		case seen && !bytes.Equal(prev, jr.results):
			ls.errs = append(ls.errs, fmt.Errorf("request %s: the cache hit's results differ from the miss that filled the cache", jr.key))
		case !seen:
			ls.byKey[jr.key] = jr.results
			ls.done = append(ls.done, body)
		}
		ls.mu.Unlock()
	}
}

// startServer brings a daemon up on a loopback listener and returns the
// CPU seconds that took. The constructing goroutine does all of it (the
// workers and the listener's goroutine start parked), so its thread's
// clock measures it without the scheduler noise of other threads.
func startServer(workers int) (*serve.Server, *httptest.Server, float64) {
	t := threadCPU()
	srv := serve.New(serve.Options{Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, threadCPU() - t
}

// healthy checks that a started daemon answers its health check.
func healthy(ts *httptest.Server) error {
	c := newClient(ts.URL)
	defer c.tr.CloseIdleConnections()
	_, err := c.do(http.MethodGet, "/healthz", nil)
	return err
}

func stopServer(srv *serve.Server, ts *httptest.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := srv.Shutdown(ctx)
	ts.Close()
	return err
}

func runServe(p params, r *report) {
	nproc := runtime.NumCPU()
	var setups []float64
	var srv *serve.Server
	var ts *httptest.Server
	for i := 0; i < p.sizes.setups; i++ {
		if srv != nil {
			r.op(stopServer(srv, ts))
		}
		// Let the previous daemon's teardown finish on the other threads
		// first: a start-up racing it reads up to twice as long, and
		// the median over a run moves by a fifth from run to run.
		time.Sleep(2 * time.Millisecond)
		var took float64
		srv, ts, took = startServer(nproc)
		setups = append(setups, took)
		if err := healthy(ts); err != nil {
			r.op(err)
			r.op(stopServer(srv, ts))
			return
		}
		r.op(nil)
	}

	ls := &loadState{byKey: make(map[string][]byte)}
	clients := make([]*client, nproc)
	for i := range clients {
		clients[i] = newClient(ts.URL)
	}
	// The untimed warm-up round: every client's first request at once.
	// The server keeps every job it ran, so the live heap is read here,
	// with the server idle and a fixed count of jobs kept, not after the
	// timed loop, where it would grow with throughput.
	drive(p, clients, ls, 0, func(i int) bool { return i < 1 })
	heap := liveHeapMB()
	runtime.KeepAlive(srv)
	warm := len(ls.jobs)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(p.window)
	drive(p, clients, ls, 1, func(int) bool { return time.Now().Before(deadline) })
	wall, cpu := time.Since(start).Seconds(), processCPU()-cpu0
	runtime.ReadMemStats(&m1)
	for _, c := range clients {
		c.tr.CloseIdleConnections()
	}

	for _, err := range ls.errs {
		r.op(err)
	}
	for range ls.jobs[:warm] {
		r.op(nil)
	}
	var latency, submit, wait, fetch []float64
	hits := 0
	for _, j := range ls.jobs[warm:] {
		r.op(nil)
		latency = append(latency, j.latency)
		submit = append(submit, j.submit)
		if j.hit {
			hits++
			continue
		}
		wait = append(wait, j.wait)
		fetch = append(fetch, j.fetch)
	}
	n := float64(len(latency))
	kcycles := n * float64(p.sizes.jobCycles) / 1000
	r.note("serve: %d clients, %d warm-up jobs, then %d jobs (%d cache hits) in %.2f s wall (%.2f s CPU), %.2f jobs/s",
		nproc, warm, len(latency), hits, wall, cpu, n/wall)
	r.check(ls.first != nil, "serve: client 0's first job did not complete")
	r.note("digest serve-jobs %s", digest(ls.first))

	if !p.traced {
		r.set("setup_s", median(setups))
		r.set("sim_cycles_per_cpu_s", ratio(1000*kcycles, cpu))
		r.set("allocs_per_kcycle", ratio(float64(m1.Mallocs-m0.Mallocs), kcycles))
		r.set("live_heap_mb", heap)
		r.setLatency(latency)
	} else {
		r.set("serve.submit_ms", 1000*median(submit))
		r.set("serve.wait_ms", 1000*median(wait))
		r.set("serve.fetch_ms", 1000*median(fetch))
		r.set("serve.cache_hit_ratio", ratio(float64(hits), n))
		r.set("serve.jobs_per_s", ratio(n, wall))
		directCompare(p, r, ls)
	}
	r.op(stopServer(srv, ts))
}

// directCompare runs client 0's first distinct requests in process,
// untraced and traced, after the load has stopped. Each must reproduce
// the served Results byte for byte; the gap between the served job's
// latency and the direct run is what the serving layer adds.
func directCompare(p params, r *report, ls *loadState) {
	var runs simRuns
	var probes []*timedPolicy
	var gaps []float64 // served job latency − direct run time, per request
	for _, body := range ls.requests {
		req, err := serve.ParseRequest(body)
		if err != nil {
			r.op(err)
			continue
		}
		key, err := serve.RequestKey(req.Canonical())
		if err != nil {
			r.op(err)
			continue
		}
		want, ok := ls.byKey[key]
		if !ok {
			continue // submitted but not completed before the deadline
		}
		served := -1.0
		for _, j := range ls.jobs {
			if j.key == key && !j.hit {
				served = j.latency
				break
			}
		}
		for _, traced := range []bool{false, true} {
			t, c := time.Now(), processCPU()
			s, err := adaptnoc.NewSim(req.Config)
			if err != nil {
				r.op(err)
				break
			}
			runs.setups = append(runs.setups, processCPU()-c)
			if traced {
				probes = append(probes, wrapPolicies(s)...)
			}
			runs.add(timeWindow(s, p.sizes.slice, runSteps(s, int64(req.Cycles), p.sizes.slice)), traced)
			runs.res = s.Results()
			doc, err := json.Marshal(runs.res)
			if !traced && served >= 0 {
				gaps = append(gaps, served-time.Since(t).Seconds())
			}
			r.op(err)
			r.check(bytes.Equal(doc, want), "serve: request %s: a direct run's results differ from the served job's", key)
		}
	}
	r.check(len(runs.plain) > 0, "serve: no request of client 0 completed for the direct comparison")
	runs.report(true, r)
	r.setDecide(probes, len(runs.traced))
	r.set("serve.overhead_ms", 1000*median(gaps))
}
