package main

// Per-layer accounting for the traced runs. Layer times come from two
// sources: the obs.Trace spans the program records on its own (campaign,
// collector.attach, label, infer, dataset, sample, mh[NN], hmc, summarize,
// pinpoint) and the benchmark's spans around the public calls it makes
// (Spec.Build, churn.LabelMeasurements, the serve.Config.Infer wrapper).

import (
	"math"
	"sort"
	"strings"
	"time"

	"because/internal/core"
	"because/internal/obs"
)

// layerTotals accumulates per-layer costs over the traced ops.
type layerTotals struct {
	ops    int
	opWall time.Duration

	build, attach, netsim, label, churnLabel time.Duration
	campaignAlloc                            uint64
	updates                                  uint64
	entries, paths                           int

	api, dataset, sample, mh, hmc, summarize, pinpoint, chainWait time.Duration
	mhSweeps, hmcIters                                            int
	accepted, proposed, divergent                                 int
	imbalance                                                     []float64
	// residual is op time no layer claims (result conversion, gaps
	// between spans); coverage is 1 − residual ÷ opWall.
	residual time.Duration
}

func spanDur(s *obs.SpanExport) time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurUS) * time.Microsecond
}

// child returns s's first child named name, or nil.
func child(s *obs.SpanExport, name string) *obs.SpanExport {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func attrInt(s *obs.SpanExport, key string) int {
	for _, a := range s.Attrs {
		if a.Key == key {
			switch v := a.Value.(type) {
			case int:
				return v
			case float64:
				return int(v)
			}
		}
	}
	return 0
}

// addCampaign books a "campaign" span: its "collector.attach" and "label"
// children, the event loop as the span's self time.
func (t *layerTotals) addCampaign(c *obs.SpanExport) {
	attach, label := spanDur(child(c, "collector.attach")), spanDur(child(c, "label"))
	t.attach += attach
	t.label += label
	t.netsim += spanDur(c) - attach - label
}

// sampling describes how an op's chains were run: the worker-pool size
// and the burn-in that turns retained samples back into sweeps.
type sampling struct {
	workers, mhBurnIn, hmcBurnIn int
}

// addInfer books an inference span (because.InferContext's "infer", or
// the benchmark's own span around a core inference): its dataset child,
// or its self time when the span has none, the sampler fan-out and the
// post-processing stages.
func (t *layerTotals) addInfer(s *obs.SpanExport, sm sampling) {
	sample, sum, pin := child(s, "sample"), child(s, "summarize"), child(s, "pinpoint")
	staged := spanDur(sample) + spanDur(sum) + spanDur(pin)
	if ds := child(s, "dataset"); ds != nil {
		t.dataset += spanDur(ds)
		t.residual += spanDur(s) - staged - spanDur(ds)
	} else {
		t.dataset += spanDur(s) - staged
	}
	t.sample += spanDur(sample)
	t.summarize += spanDur(sum)
	t.pinpoint += spanDur(pin)
	if sample == nil {
		return
	}
	// core pre-creates every chain span when the fan-out starts, so a
	// chain span also covers the chain's wait for a worker. The pool is a
	// FIFO semaphore: replaying the chains' end times in job order over
	// sm.workers slots recovers when each chain actually started.
	free := make([]int64, sm.workers)
	for i := range free {
		free[i] = sample.StartUS
	}
	var longest time.Duration
	for _, c := range sample.Children {
		slot := 0
		for i := range free {
			if free[i] < free[slot] {
				slot = i
			}
		}
		startUS, endUS := free[slot], c.StartUS+c.DurUS
		free[slot] = endUS
		run := time.Duration(endUS-startUS) * time.Microsecond
		if run > longest {
			longest = run
		}
		t.chainWait += time.Duration(startUS-sample.StartUS) * time.Microsecond
		if strings.HasPrefix(c.Name, "mh[") {
			t.mh += run
			t.mhSweeps += attrInt(c, "sweeps") + sm.mhBurnIn
			t.accepted += attrInt(c, "accepted")
			t.proposed += attrInt(c, "proposed")
		} else if c.Name == "hmc" {
			t.hmc += run
			t.hmcIters += attrInt(c, "sweeps") + sm.hmcBurnIn
			t.divergent += attrInt(c, "divergent")
		}
	}
	if longest > 0 {
		t.imbalance = append(t.imbalance, float64(spanDur(sample))/float64(longest))
	}
}

// essPool collects per-AS effective sample sizes, each summed over an
// inference's MH chains, from the checked ops of a run. Its 10th
// percentile is core.ess_p10.
type essPool []float64

func (p *essPool) add(res *core.Result) {
	var mh []*core.Chain
	for _, c := range res.Chains {
		if c.Method == "mh" {
			mh = append(mh, c)
		}
	}
	for i := range res.Summaries {
		sum := 0.0
		for _, c := range mh {
			sum += core.ESS(c.Marginal(i))
		}
		*p = append(*p, sum)
	}
}

func (p essPool) p10() float64 {
	if len(p) == 0 {
		return 0
	}
	s := append([]float64(nil), p...)
	sort.Float64s(s)
	return quantile(s, 0.10)
}

// perLayerNames lists every per-layer metric, so each traced run reports
// all of them (0 where a layer does no work on the workload).
var perLayerNames = []struct{ name, unit string }{
	{"scenario.build_ms", "ms"},
	{"collector.attach_ms", "ms"},
	{"netsim.run_ms", "ms"},
	{"router.updates_sent", "count"},
	{"netsim.updates_per_s", "1/s"},
	{"experiment.campaign_alloc_mb", "MB"},
	{"collector.entries", "count"},
	{"label.ms", "ms"},
	{"label.paths", "count"},
	{"churn.label_ms", "ms"},
	{"because.api_ms", "ms"},
	{"core.dataset_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.mh_ms", "ms"},
	{"core.hmc_ms", "ms"},
	{"core.mh_sweeps_per_s", "1/s"},
	{"core.hmc_iters_per_s", "1/s"},
	{"core.mh_acceptance", "ratio"},
	{"core.hmc_divergent", "count"},
	{"core.ess_p10", "count"},
	{"core.summarize_ms", "ms"},
	{"core.pinpoint_ms", "ms"},
	{"par.chain_wait_ms", "ms"},
	{"par.sample_imbalance", "ratio"},
	{"serve.infer_ms", "ms"},
	{"serve.miss_overhead_ms", "ms"},
	{"serve.response_kb", "kB"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.rejected", "count"},
	{"serve.sse_events", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.span_coverage_pct", "%"},
}

// perOp divides a total over the traced ops, in ms.
func (t *layerTotals) perOp(d time.Duration) float64 {
	if t.ops == 0 {
		return 0
	}
	return ms(d) / float64(t.ops)
}

func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// metrics renders the totals. Times are per traced op; counts are totals
// over the traced ops. ess is core.ess_p10; overhead is traced ÷ untraced
// op_p50_ms − 1.
func (t *layerTotals) metrics(ess, overhead float64) map[string]float64 {
	m := map[string]float64{
		"scenario.build_ms":            t.perOp(t.build),
		"collector.attach_ms":          t.perOp(t.attach),
		"netsim.run_ms":                t.perOp(t.netsim),
		"router.updates_sent":          float64(t.updates),
		"netsim.updates_per_s":         perSecond(int(t.updates), t.netsim),
		"experiment.campaign_alloc_mb": float64(t.campaignAlloc) / 1e6 / math.Max(1, float64(t.ops)),
		"collector.entries":            float64(t.entries),
		"label.ms":                     t.perOp(t.label),
		"label.paths":                  float64(t.paths),
		"churn.label_ms":               t.perOp(t.churnLabel),
		"because.api_ms":               t.perOp(t.api),
		"core.dataset_ms":              t.perOp(t.dataset),
		"core.sample_ms":               t.perOp(t.sample),
		"core.mh_ms":                   t.perOp(t.mh),
		"core.hmc_ms":                  t.perOp(t.hmc),
		"core.mh_sweeps_per_s":         perSecond(t.mhSweeps, t.mh),
		"core.hmc_iters_per_s":         perSecond(t.hmcIters, t.hmc),
		"core.hmc_divergent":           float64(t.divergent),
		"core.ess_p10":                 ess,
		"core.summarize_ms":            t.perOp(t.summarize),
		"core.pinpoint_ms":             t.perOp(t.pinpoint),
		"par.chain_wait_ms":            t.perOp(t.chainWait),
		"obs.trace_overhead_pct":       100 * overhead,
	}
	if t.proposed > 0 {
		m["core.mh_acceptance"] = float64(t.accepted) / float64(t.proposed)
	}
	if len(t.imbalance) > 0 {
		m["par.sample_imbalance"] = median(t.imbalance)
	}
	if t.opWall > 0 {
		m["obs.span_coverage_pct"] = 100 * (1 - float64(t.residual)/float64(t.opWall))
	}
	return m
}

// perLayerResult fills every per-layer metric, 0 where the workload left
// one unset.
func perLayerResult(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		out[n.name] = metric{values[n.name], n.unit}
	}
	return out
}
