package main

// Measurement plumbing: the timed phase (wall, process CPU, heap
// allocation, sampled peak RSS), op records, percentiles, and the JSON
// result line.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"because"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one timed op.
type opRecord struct {
	Latency time.Duration
	OK      bool
	// Repeat marks an op whose key the run has already served: a cache hit
	// on serve-mixed, a same-seed recompute on infer-paper.
	Repeat bool
}

// phaseStats is what the timed phase cost the process.
type phaseStats struct {
	Wall, CPU  time.Duration
	AllocBytes uint64
	PeakRSS    uint64
}

// phase measures one timed phase. Start it after set-up; the garbage of
// set-up is collected and returned to the OS first so the sampled peak
// RSS belongs to the phase.
type phase struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64
	stop   chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	peak   uint64
}

func beginPhase() *phase {
	runtime.GC()
	debug.FreeOSMemory()
	p := &phase{stop: make(chan struct{})}
	p.peak = residentBytes()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				rss := residentBytes()
				p.mu.Lock()
				if rss > p.peak {
					p.peak = rss
				}
				p.mu.Unlock()
			}
		}
	}()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc0 = ms.TotalAlloc
	p.cpu0 = processCPU()
	p.start = time.Now()
	return p
}

func (p *phase) end() phaseStats {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	close(p.stop)
	p.done.Wait()
	rss := residentBytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	if rss > p.peak {
		p.peak = rss
	}
	return phaseStats{Wall: wall, CPU: cpu, AllocBytes: ms.TotalAlloc - p.alloc0, PeakRSS: p.peak}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's resident set from /proc/self/statm
// (0 where that file does not exist).
func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// setupRepeats is how many times each workload's set-up runs; setup_s is
// the median.
const setupRepeats = 5

// timeSetup runs a workload's set-up setupRepeats times and returns each
// run's wall time in seconds.
func timeSetup(setup func() error) ([]float64, error) {
	out := make([]float64, setupRepeats)
	for i := range out {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out[i] = time.Since(start).Seconds()
	}
	return out, nil
}

// forEachOp runs op(i) for i in [0, n) on procs goroutines, each taking
// the next op as it frees up.
func forEachOp(n, procs int, op func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				op(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// referenceSeed generates every workload's reference inputs: the fixed
// sample, the same in every run whatever --seed says, on which recall,
// precision and core.ess_p10 are measured. Over the seeded ops those
// figures would swing with the sample (a world holds a handful of
// dampers) far more than any bound could allow; on a fixed sample they
// are exact, so a change in them is a change in the program.
const referenceSeed = 20201

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// median of unsorted values.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond op_tail_ms's
// percentile.
const tailSamples = 10

// tailPercentile is the highest whole percentile of n samples with at
// least tailSamples samples beyond its nearest-rank position, or 0 when
// the run is too short for that position to lie above the median's.
func tailPercentile(n int) int {
	medianRank := (n + 1) / 2
	for p := 99; p > 50; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= tailSamples {
			if rank > medianRank {
				return p
			}
			return 0
		}
	}
	return 0
}

// latencies returns the op latencies in ms, sorted, optionally only ops
// with the given repeat flag.
func latencies(ops []opRecord, filter func(opRecord) bool) []float64 {
	var out []float64
	for _, op := range ops {
		if filter == nil || filter(op) {
			out = append(out, ms(op.Latency))
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failures counts the ops that failed.
func failures(ops []opRecord) int {
	failed := 0
	for _, op := range ops {
		if !op.OK {
			failed++
		}
	}
	return failed
}

// checks counts output checks made outside the timed ops (on the
// reference inputs).
type checks struct{ attempted, failed int }

func (c *checks) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// finish assembles the result line: correct only if every op and check
// passed. An end-to-end result (one with setup_s) gets ok_ratio.
func finish(ops []opRecord, c checks, m map[string]metric) result {
	r := result{Attempted: len(ops) + c.attempted, Failed: failures(ops) + c.failed, Metrics: m}
	r.Correct = r.Failed == 0
	if _, e2e := m["setup_s"]; e2e {
		m["ok_ratio"] = metric{float64(r.Attempted-r.Failed) / float64(r.Attempted), "ratio"}
	}
	return r
}

// traceOverhead is the traced pass's op_p50_ms over the untraced pass's,
// minus one.
func traceOverhead(untraced, traced []opRecord) float64 {
	return median(latencies(traced, nil))/median(latencies(untraced, nil)) - 1
}

// essPerCPU is ess_per_cpu_s: core.ess_p10 per CPU second of one
// inference.
func essPerCPU(ess float64, cpuPerInference time.Duration) float64 {
	return ess / cpuPerInference.Seconds()
}

// endToEnd computes the metrics every workload reports except
// ess_per_cpu_s, whose CPU denominator each workload measures its own way.
func endToEnd(ops []opRecord, st phaseStats, setup []float64) map[string]metric {
	m := map[string]metric{}
	failed := failures(ops)
	n := len(ops)
	all := latencies(ops, nil)
	p50 := quantile(all, 0.5)
	m["setup_s"] = metric{median(setup), "s"}
	m["ops_per_s"] = metric{float64(n-failed) / st.Wall.Seconds(), "1/s"}
	m["op_p50_ms"] = metric{p50, "ms"}
	if p := tailPercentile(n); p > 0 {
		m["op_tail_ms"] = metric{quantile(all, float64(p)/100), "ms"}
	}
	m["cpu_per_op_ms"] = metric{ms(st.CPU) / float64(n), "ms"}
	m["alloc_mb_per_op"] = metric{float64(st.AllocBytes) / 1e6 / float64(n), "MB"}
	m["peak_rss_mb"] = metric{float64(st.PeakRSS) / 1e6, "MB"}
	cold := latencies(ops, func(op opRecord) bool { return !op.Repeat })
	m["cold_p50_ms"] = metric{quantile(cold, 0.5), "ms"}
	if repeat := latencies(ops, func(op opRecord) bool { return op.Repeat }); len(repeat) > 0 {
		m["cached_p50_ms"] = metric{quantile(repeat, 0.5), "ms"}
	} else {
		// No op repeats a key on this workload: what a repeat costs is
		// what any op costs, since nothing on the path caches.
		m["cached_p50_ms"] = metric{p50, "ms"}
	}
	return m
}

// quality tallies planted, detectable and flagged dampers; recall and
// precision are ratios of its sums.
type quality struct {
	planted, detectable, found, flagged, truePos int
}

func (q *quality) add(o quality) {
	q.planted += o.planted
	q.detectable += o.detectable
	q.found += o.found
	q.flagged += o.flagged
	q.truePos += o.truePos
}

func (q *quality) addSynth(set *synthSet, res *because.Result) {
	q.planted += len(set.Dampers)
	q.detectable += len(set.Detectable)
	for _, rep := range res.Reports {
		if !rep.Category.Positive() {
			continue
		}
		q.flagged++
		if set.Dampers[rep.AS] {
			q.truePos++
		}
		if set.Detectable[rep.AS] {
			q.found++
		}
	}
}

func (q *quality) metrics(m map[string]metric) {
	m["recall"] = metric{ratio(q.found, q.detectable), "ratio"}
	m["precision"] = metric{ratio(q.truePos, q.flagged), "ratio"}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// emit prints the result line and returns the process exit code.
func emit(r result) int {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}
