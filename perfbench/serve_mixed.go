package main

// serve-mixed: an in-process becaused (serve.New with becaused's default
// configuration, loopback HTTP) driven as a closed loop by one client per
// CPU. Each client owns its key partition and all keys fit in the result
// cache, so a key's first request is exactly a miss (inference plus cache
// write) and every repeat exactly a hit (read path only), whatever the
// interleaving.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"because"
	"because/internal/churn"
	"because/internal/core"
	"because/internal/obs"
	"because/internal/serve"
)

const (
	// serveKeySeconds is the nominal cost, on the reference machine, of
	// one key's segment of a client's list (its miss and its hits); it
	// sizes the key count to the run's seconds.
	serveKeySeconds = 0.40
	// serveReferenceKeys are the reference keys quality and core.ess_p10
	// are measured on.
	serveReferenceKeys = 32
)

// serveSampling is how becaused's default configuration runs a request's
// chains: one at a time (Config.ChainWorkers 0 selects 1), with the
// default sampler settings (MH 1500/375, HMC 800/200).
var serveSampling = sampling{workers: 1, mhBurnIn: 375, hmcBurnIn: 200}

// serveClients is how many closed-loop clients run: one per CPU, but
// never more than there are keys to partition.
func serveClients(procs int) int { return min(procs, serveMaxKeys) }

// serveKeysPerClient sizes the plan so each client's list lasts about
// seconds, within the cache-capped key count.
func serveKeysPerClient(seconds, clients int) int {
	n := int(math.Round(float64(seconds) / serveKeySeconds))
	return max(1, min(n, serveMaxKeys/clients))
}

// reply is what a client checked about one response.
type reply struct {
	status int
	ok     bool   // status 200 and the cache outcome the plan says
	result []byte // the because.Result document
	events int    // progress frames, streamed requests only
	size   int
}

// inferTimer is the serve.Config.Infer wrapper of the traced run. Every
// job runs under a trace the server creates, so the wrapper runs each
// request's inference twice, back to back and alternating which goes
// first: once without the trace on its context (the overhead baseline)
// and once under it, whose result it returns and whose spans it books.
type inferTimer struct {
	mu sync.Mutex
	// wrapper is each seed's whole time in the wrapper; baseline the
	// untraced calls' total.
	wrapper          map[uint64]time.Duration
	baseline         time.Duration
	untraced, traced []float64 // ms per call
	t                layerTotals
}

func (it *inferTimer) infer(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
	start := time.Now()
	it.mu.Lock()
	untracedFirst := len(it.traced)%2 == 0
	it.mu.Unlock()
	// The baseline gets a no-op progress callback so both calls pay for
	// one; only the traced call feeds the job's SSE stream.
	plain := opts
	plain.OnProgress = func(because.ProgressEvent) {}
	var plainWall time.Duration
	runPlain := func() error {
		s := time.Now()
		_, err := because.InferContext(context.Background(), observations, plain)
		plainWall = time.Since(s)
		return err
	}
	if untracedFirst {
		if err := runPlain(); err != nil {
			return nil, err
		}
	}
	s := time.Now()
	res, err := because.InferContext(ctx, observations, opts)
	wall := time.Since(s)
	if err != nil {
		return nil, err
	}
	if !untracedFirst {
		if err := runPlain(); err != nil {
			return nil, err
		}
	}
	// The job trace is live (its root ends after this returns); the infer
	// span under it has ended.
	infer := child(obs.TraceFromContext(ctx).Export().Root, "infer")
	it.mu.Lock()
	defer it.mu.Unlock()
	it.wrapper[opts.Seed] = time.Since(start)
	it.baseline += plainWall
	it.untraced = append(it.untraced, ms(plainWall))
	it.traced = append(it.traced, ms(wall))
	it.t.ops++
	it.t.opWall += wall
	it.t.api += wall - spanDur(infer)
	it.t.addInfer(infer, serveSampling)
	return res, nil
}

// server is one running becaused.
type server struct {
	srv    *serve.Server
	base   string
	client *http.Client
}

func startServer(infer serve.InferFunc) (*server, error) {
	srv := serve.New(serve.Config{Obs: obs.New(obs.Nop(), obs.NewRegistry()), Infer: infer})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, base: "http://" + addr, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	for i := 0; ; i++ {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 100 {
			s.stop()
			return nil, fmt.Errorf("serve-mixed: server never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // every request has completed by now
	s.client.CloseIdleConnections()
}

// send issues one planned request and checks the response against the
// plan. The returned latency runs from send to the last body byte.
func (s *server) send(body []byte, op serveOp) (time.Duration, reply, error) {
	url := s.base + "/v1/infer"
	if op.Stream {
		url += "?stream=1"
	}
	start := time.Now()
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(start)
	if err != nil {
		return 0, reply{}, err
	}
	r := reply{status: resp.StatusCode, size: len(data)}
	if resp.StatusCode != http.StatusOK {
		return latency, r, nil
	}
	var env struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if op.Stream {
		frame := ""
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "event: progress":
				r.events++
			case strings.HasPrefix(line, "event: "):
				frame = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && frame == "result":
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &env); err != nil {
					return latency, r, err
				}
			}
		}
	} else {
		if err := json.Unmarshal(data, &env); err != nil {
			return latency, r, err
		}
		if want := map[bool]string{true: "hit", false: "miss"}[op.Hit]; resp.Header.Get("X-Cache") != want {
			return latency, r, nil
		}
	}
	r.result = env.Result
	r.ok = env.Cached == op.Hit && len(env.Result) > 0
	return latency, r, nil
}

// metricsCounter reads one counter from the server's /metrics.
func (s *server) metricsCounter(name string) (int, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return int(v), err
		}
	}
	return 0, sc.Err()
}

// servePass is the plan's requests to one server.
type servePass struct {
	ops     []opRecord
	replies []reply   // with result dropped, to keep the pass's memory flat
	planned []serveOp // the plan, clients in order, aligned with ops
	// results holds each key's body from its miss; every hit was checked
	// against it as it arrived.
	results  [][]byte
	rejected int
	hits     int // /metrics counters after the pass
	misses   int
}

// runServePass drives the plan closed-loop against one fresh server
// whose inference is infer (nil selects because.InferContext).
func runServePass(plan *servePlan, infer serve.InferFunc) (*servePass, phaseStats, error) {
	s, err := startServer(infer)
	if err != nil {
		return nil, phaseStats{}, err
	}
	defer s.stop()
	offsets := make([]int, len(plan.Clients))
	p := &servePass{results: make([][]byte, len(plan.Keys))}
	for c, ops := range plan.Clients {
		offsets[c] = len(p.planned)
		p.planned = append(p.planned, ops...)
	}
	p.ops = make([]opRecord, len(p.planned))
	p.replies = make([]reply, len(p.planned))
	rejected := make([]int, len(plan.Clients))

	ph := beginPhase()
	var wg sync.WaitGroup
	for c := range plan.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, op := range plan.Clients[c] {
				at := offsets[c] + i
				latency, r, err := s.send(plan.Keys[op.Key].Body, op)
				if r.status == http.StatusTooManyRequests {
					rejected[c]++
				}
				// Keys are partitioned by client, so only this goroutine
				// touches results[op.Key].
				if !op.Hit {
					p.results[op.Key] = r.result
				} else if !bytes.Equal(r.result, p.results[op.Key]) {
					r.ok = false
				}
				r.result = nil
				p.ops[at] = opRecord{Latency: latency, OK: err == nil && r.ok, Repeat: op.Hit}
				p.replies[at] = r
			}
		}(c)
	}
	wg.Wait()
	st := ph.end()

	for _, n := range rejected {
		p.rejected += n
	}
	if p.hits, err = s.metricsCounter(obs.MetricServeCacheHits); err != nil {
		return nil, st, err
	}
	if p.misses, err = s.metricsCounter(obs.MetricServeCacheMisses); err != nil {
		return nil, st, err
	}
	return p, st, nil
}

// check verifies a pass: the cache counters equal the plan and each key's
// result equals the direct because.InferContext result in want (every hit
// was already checked against its key's miss).
func (p *servePass) check(want [][]byte) {
	planHits := 0
	for _, op := range p.ops {
		if op.Repeat {
			planHits++
		}
	}
	countersOK := p.hits == planHits && p.misses == len(p.ops)-planHits
	for i := range p.ops {
		p.ops[i].OK = p.ops[i].OK && countersOK && bytes.Equal(p.results[p.planned[i].Key], want[p.planned[i].Key])
	}
}

// directResults computes each key's expected result body with
// because.InferContext, one key at a time, and the median over keys of the
// process CPU time each call took: what one miss's inference costs
// without the serving layer around it. One call at a time, the process's
// CPU is the call's; the median keeps a stray GC cycle or a noisy
// neighbour out of it.
func directResults(plan *servePlan) ([][]byte, time.Duration, error) {
	bodies := make([][]byte, len(plan.Keys))
	cpu := make([]float64, len(plan.Keys))
	for k, key := range plan.Keys {
		opts := key.Opts
		opts.Workers = 1
		cpu0 := processCPU()
		res, err := because.InferContext(context.Background(), key.Set.Observations, opts)
		cpu[k] = float64(processCPU() - cpu0)
		if err != nil {
			return nil, 0, err
		}
		if bodies[k], err = json.Marshal(res); err != nil {
			return nil, 0, err
		}
	}
	return bodies, time.Duration(median(cpu)), nil
}

// samePosterior reports whether a core result carries exactly the
// posterior means of a public-API result.
func samePosterior(c *core.Result, r *because.Result) bool {
	if len(c.Summaries) != len(r.Reports) {
		return false
	}
	for _, s := range c.Summaries {
		rep, ok := r.Lookup(because.ASN(s.ASN))
		if !ok || rep.Mean != s.Mean {
			return false
		}
	}
	return true
}

// serveReference runs the reference keys, campaign-sized sets under
// default options (every fourth with the churn model):
// because.InferContext gives recall and precision, core.InferContext with
// the configuration because.InferContext derives gives core.ess_p10 and
// must reproduce the same posterior means.
func serveReference(procs int) (quality, float64, checks, error) {
	seeds := opSeeds(referenceSeed, serveReferenceKeys)
	qs := make([]quality, len(seeds))
	results := make([]*core.Result, len(seeds))
	same := make([]bool, len(seeds))
	errs := make([]error, len(seeds))
	forEachOp(len(seeds), procs, func(k int) {
		set, err := synthesize(campaignSynth, seeds[k])
		if err != nil {
			errs[k] = err
			return
		}
		opts, model := because.Options{Seed: seeds[k], Workers: 1}, core.ObservationModel(nil)
		if k%serveChurnEvery == serveChurnEvery-1 {
			opts.Model, opts.ChurnRate = because.ModelChurn, serveChurnRate
			model = churn.Model{BackgroundRate: serveChurnRate}
		}
		res, err := because.InferContext(context.Background(), set.Observations, opts)
		if err != nil {
			errs[k] = err
			return
		}
		qs[k].addSynth(set, res)
		ds, err := coreDataset(set.Observations)
		if err != nil {
			errs[k] = err
			return
		}
		results[k], errs[k] = core.InferContext(context.Background(), ds, core.Config{Seed: seeds[k], Workers: 1, Model: model})
		same[k] = errs[k] == nil && samePosterior(results[k], res)
	})
	var q quality
	var ess essPool
	var c checks
	for k := range seeds {
		if errs[k] != nil {
			return q, 0, c, errs[k]
		}
		q.add(qs[k])
		ess.add(results[k])
		c.check(same[k])
	}
	return q, ess.p10(), c, nil
}

func runServeMixed(cfg runConfig) (result, error) {
	seconds := cfg.seconds
	if cfg.traced {
		seconds = (seconds + 1) / 2
	}
	clients := serveClients(cfg.procs)
	var plan *servePlan
	setup, err := timeSetup(func() error {
		var err error
		if plan, err = newServePlan(cfg.seed, clients, serveKeysPerClient(seconds, clients)); err != nil {
			return err
		}
		s, err := startServer(nil)
		if err != nil {
			return err
		}
		s.stop()
		return nil
	})
	if err != nil {
		return result{}, err
	}

	// The traced run's server has the timing wrapper as Config.Infer.
	var infer serve.InferFunc
	it := &inferTimer{wrapper: make(map[uint64]time.Duration)}
	if cfg.traced {
		infer = it.infer
	}
	pass, st, err := runServePass(plan, infer)
	if err != nil {
		return result{}, err
	}
	want, inferCPU, err := directResults(plan)
	if err != nil {
		return result{}, err
	}
	pass.check(want)
	q, ess, c, err := serveReference(cfg.procs)
	if err != nil {
		return result{}, err
	}
	if !cfg.traced {
		m := endToEnd(pass.ops, st, setup)
		m["ess_per_cpu_s"] = metric{essPerCPU(ess, inferCPU), "1/s"}
		q.metrics(m)
		return finish(pass.ops, c, m), nil
	}

	var overheads []float64
	var respBytes, streams, events int
	var total time.Duration
	for i, op := range pass.ops {
		planned, r := pass.planned[i], pass.replies[i]
		respBytes += r.size
		total += op.Latency
		if !op.Repeat {
			overheads = append(overheads, ms(op.Latency-it.wrapper[plan.Keys[planned.Key].Opts.Seed]))
		}
		if planned.Stream && !planned.Hit {
			// A streamed hit is born finished and carries no progress.
			streams++
			events += r.events
		}
	}
	t := &it.t
	values := t.metrics(ess, median(it.traced)/median(it.untraced)-1)
	values["serve.infer_ms"] = t.perOp(t.opWall)
	values["serve.miss_overhead_ms"] = median(overheads)
	values["serve.response_kb"] = float64(respBytes) / 1000 / float64(len(pass.ops))
	values["serve.cache_hits"] = float64(pass.hits)
	values["serve.cache_misses"] = float64(pass.misses)
	values["serve.rejected"] = float64(pass.rejected)
	values["serve.sse_events"] = ratio(events, streams)
	// Outside the inference spans, a request's time is the serve layer's
	// own: a hit's whole latency, a miss's overhead. The wrapper's
	// untraced baseline call is the benchmark's, not the request's.
	values["obs.span_coverage_pct"] = 100 * (1 - float64(t.residual)/float64(total-it.baseline))
	return finish(pass.ops, c, perLayerResult(values)), nil
}
