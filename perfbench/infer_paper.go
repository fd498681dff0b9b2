package main

// infer-paper: because.InferContext at the paper's sampler settings, each
// distinct op over its own synthetic observation set. The samplers do
// nearly all the work and the simulator none.

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"time"

	"because"
	"because/internal/bgp"
	"because/internal/core"
	"because/internal/obs"
	"because/internal/topology"
)

const (
	// inferOpSeconds is the nominal op cost on the reference machine.
	inferOpSeconds = 0.9
	// inferChains MH chains run per op, plus one HMC run.
	inferChains = 2
	// inferRepeatGroup: in each group of 4 ops the last 2 repeat the
	// seeds of the 2 before them, and must return byte-identical results.
	// Half the ops repeat, so cached_p50_ms is a median of as many ops as
	// cold_p50_ms.
	inferRepeatGroup = 4
	// inferReferenceSets are the reference sets quality and core.ess_p10
	// are measured on.
	inferReferenceSets = 4
	// The paper's sampler settings (MH 1600/400, HMC 600/200).
	inferMHSweeps, inferMHBurnIn  = 1600, 400
	inferHMCIters, inferHMCBurnIn = 600, 200
)

// inferSynth is one infer-paper observation set: 480 paths from 40
// vantage points to 12 beacon origins over a generated topology of 558
// ASes, about a hundred of them measured, with 8 consistent and 2
// inconsistent dampers among the transits measured on at least 5 paths
// and a 5% miss rate.
var inferSynth = synthConfig{
	Topology: topology.GenConfig{
		Tier1: 8, Transit: 150, Stubs: 400,
		TransitMaxProviders: 3, TransitPeerDegree: 1.5, StubMaxProviders: 2,
		BaseASN: 20000,
	},
	VPs: 40, Origins: 12, Paths: 480,
	Consistent: 8, Inconsistent: 2, MinPaths: 5,
	MissRate: 0.05,
}

// inferOp is one planned inference: its seed, which generates the op's
// observation set and seeds its samplers, and whether it repeats an
// earlier op.
type inferOp struct {
	Seed   uint64
	Repeat bool
}

// inferPlan derives n ops from the workload seed.
func inferPlan(seed uint64, n int) []inferOp {
	seeds := opSeeds(seed^0x1f3, n)
	ops := make([]inferOp, n)
	for i := range ops {
		if i%inferRepeatGroup >= inferRepeatGroup/2 {
			ops[i] = inferOp{Seed: ops[i-2].Seed, Repeat: true}
		} else {
			ops[i] = inferOp{Seed: seeds[i]}
		}
	}
	return ops
}

func inferOptions(seed uint64, workers int) because.Options {
	return because.Options{
		Seed:     seed,
		MHSweeps: inferMHSweeps, MHBurnIn: inferMHBurnIn,
		HMCIterations: inferHMCIters, HMCBurnIn: inferHMCBurnIn,
		Chains:  inferChains,
		Workers: workers,
	}
}

// coreDataset builds the core dataset because.InferContext builds from
// the same observations.
func coreDataset(observations []because.PathObservation) (*core.Dataset, error) {
	paths := make([]core.PathObs, len(observations))
	for i, o := range observations {
		asns := make([]bgp.ASN, len(o.Path))
		for j, a := range o.Path {
			asns[j] = bgp.ASN(a)
		}
		paths[i] = core.PathObs{ASNs: asns, Positive: o.ShowsProperty, Weight: o.Weight}
	}
	return core.NewDataset(paths)
}

// sameMHChains reports whether a core re-run reproduced the public-API
// result's MH chains: because.Result reports the last MH chain's
// acceptance rate, an exact ratio of counts.
func sameMHChains(c *core.Result, r *because.Result) bool {
	var last *core.Chain
	for _, ch := range c.Chains {
		if ch.Method == "mh" {
			last = ch
		}
	}
	return last != nil && last.AcceptanceRate() == r.MHAcceptance
}

// sameJSON reports whether two results encode byte for byte the same.
func sameJSON(a, b *because.Result) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// tracedInfer runs one because.InferContext under a fresh trace and books
// its layers into t.
func tracedInfer(observations []because.PathObservation, opts because.Options, t *layerTotals) (*because.Result, error) {
	tr := obs.NewTrace("op", "infer-paper/"+strconv.FormatUint(opts.Seed, 10))
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	start := time.Now()
	res, err := because.InferContext(ctx, observations, opts)
	wall := time.Since(start)
	tr.Root().End()
	if err != nil {
		return nil, err
	}
	infer := child(tr.Export().Root, "infer")
	t.ops++
	t.opWall += wall
	t.api += wall - spanDur(infer)
	t.addInfer(infer, sampling{workers: opts.Workers, mhBurnIn: inferMHBurnIn, hmcBurnIn: inferHMCBurnIn})
	return res, nil
}

func runInferPaper(cfg runConfig) (result, error) {
	n := opCount(cfg.seconds, inferOpSeconds)
	if cfg.traced {
		n /= 2
	}
	var plan []inferOp
	var sets []*synthSet // per op; a repeat shares its original's set
	setup, err := timeSetup(func() error {
		plan = inferPlan(cfg.seed, n)
		sets = make([]*synthSet, len(plan))
		for i, op := range plan {
			if op.Repeat {
				sets[i] = sets[i-2]
				continue
			}
			var err error
			if sets[i], err = synthesize(inferSynth, op.Seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}

	// runOp runs op i, traced into t when t is non-nil.
	runOp := func(i int, t *layerTotals) (opRecord, *because.Result) {
		opts := inferOptions(plan[i].Seed, cfg.procs)
		start := time.Now()
		var res *because.Result
		var err error
		if t != nil {
			res, err = tracedInfer(sets[i].Observations, opts, t)
		} else {
			res, err = because.InferContext(context.Background(), sets[i].Observations, opts)
		}
		return opRecord{Latency: time.Since(start), OK: err == nil, Repeat: plan[i].Repeat}, res
	}
	// checkRepeats: a repeat follows its original by two ops and must
	// encode byte for byte the same.
	checkRepeats := func(ops []opRecord, results []*because.Result) {
		for i, op := range plan {
			if op.Repeat {
				ops[i].OK = ops[i].OK && ops[i-2].OK && sameJSON(results[i], results[i-2])
			}
		}
	}

	ops := make([]opRecord, len(plan))
	results := make([]*because.Result, len(plan))
	if !cfg.traced {
		ph := beginPhase()
		for i := range plan {
			ops[i], results[i] = runOp(i, nil)
		}
		st := ph.end()
		checkRepeats(ops, results)
		q, ess, c, err := inferReference(cfg.procs)
		if err != nil {
			return result{}, err
		}
		m := endToEnd(ops, st, setup)
		m["ess_per_cpu_s"] = metric{essPerCPU(ess, st.CPU/time.Duration(len(ops))), "1/s"}
		q.metrics(m)
		return finish(ops, c, m), nil
	}

	// The traced run times each op untraced and traced back to back,
	// alternating which goes first, so drift in machine speed cancels out
	// of obs.trace_overhead_pct.
	var t layerTotals
	traced := make([]opRecord, len(plan))
	tracedResults := make([]*because.Result, len(plan))
	for i := range plan {
		if i%2 == 0 {
			ops[i], results[i] = runOp(i, nil)
			traced[i], tracedResults[i] = runOp(i, &t)
		} else {
			traced[i], tracedResults[i] = runOp(i, &t)
			ops[i], results[i] = runOp(i, nil)
		}
	}
	checkRepeats(ops, results)
	checkRepeats(traced, tracedResults)
	for i := range traced {
		// Tracing must not change a result.
		traced[i].OK = traced[i].OK && sameJSON(results[i], tracedResults[i])
	}
	_, ess, c, err := inferReference(cfg.procs)
	if err != nil {
		return result{}, err
	}
	return finish(append(ops, traced...), c, perLayerResult(t.metrics(ess, traceOverhead(ops, traced)))), nil
}

// inferReference runs the reference sets: because.InferContext gives
// recall and precision; re-running its MH chains through
// core.InferContext gives core.ess_p10 and must reproduce the reported
// MH acceptance. core splits the MH chains' RNG streams before HMC's, so
// without HMC the chains are the ones the public call sampled.
func inferReference(procs int) (quality, float64, checks, error) {
	var q quality
	var ess essPool
	var c checks
	for _, seed := range opSeeds(referenceSeed, inferReferenceSets) {
		set, err := synthesize(inferSynth, seed)
		if err != nil {
			return q, 0, c, err
		}
		res, err := because.InferContext(context.Background(), set.Observations, inferOptions(seed, procs))
		if err != nil {
			return q, 0, c, err
		}
		q.addSynth(set, res)
		ds, err := coreDataset(set.Observations)
		if err != nil {
			return q, 0, c, err
		}
		cres, err := core.InferContext(context.Background(), ds, core.Config{
			Seed:       seed,
			Chains:     inferChains,
			Workers:    procs,
			MH:         core.MHConfig{Sweeps: inferMHSweeps, BurnIn: inferMHBurnIn},
			DisableHMC: true,
		})
		if err != nil {
			return q, 0, c, err
		}
		c.check(sameMHChains(cres, res))
		ess.add(cres)
	}
	return q, ess.p10(), c, nil
}
