package main

// scenario-churn: scenario.Run over the embedded churn-tomography
// document, one distinct seed per op. The campaign simulator (netsim,
// router, rfd, beacon, collector, label, background churn) does nearly all
// the work; inference runs under the churn observation model.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"because"
	"because/internal/bgp"
	"because/internal/churn"
	"because/internal/core"
	"because/internal/experiment"
	"because/internal/obs"
	"because/internal/scenario"
)

const (
	scenarioDoc = "churn-tomography"
	// scenarioOpSeconds is the nominal op latency on the reference
	// machine with nproc ops running at once; it sizes the op list to the
	// run's seconds.
	scenarioOpSeconds = 1.45
	// scenarioChecked ops are re-run layer by layer after the timed phase
	// to cross-check scenario.Run.
	scenarioChecked = 2
	// scenarioReferenceWorlds are the reference worlds quality and
	// core.ess_p10 are measured on.
	scenarioReferenceWorlds = 8
)

// scenarioWarmupSeed seeds set-up's warm-up document. It is fixed, not
// derived from the workload seed, so set-up does the same work whatever
// --seed says and setup_s does not move with the world a seed draws.
const scenarioWarmupSeed = 0x3a3f

// scenarioSpecs derives n op documents plus one warm-up document: the
// corpus document with its expectation block dropped (expectations are
// per-seed facts; the benchmark scores recall and precision itself) and a
// distinct seed each, the ops' from the workload seed. Workers never
// changes a result, only how many chains of one op sample at once.
func scenarioSpecs(seed uint64, n, clients int) (ops []*scenario.Spec, warmup *scenario.Spec, err error) {
	base, err := scenario.ByName(scenarioDoc)
	if err != nil {
		return nil, nil, err
	}
	if base.ResolvedModel() != because.ModelChurn {
		return nil, nil, fmt.Errorf("%s: model %q, want churn", scenarioDoc, base.ResolvedModel())
	}
	for _, s := range append(opSeeds(seed, n), scenarioWarmupSeed) {
		spec := *base
		spec.Seed = s
		spec.Expect = scenario.ExpectSpec{}
		if clients > 1 {
			// clients ops run at once; one sampler worker each keeps the
			// total at nproc.
			spec.Workers = 1
		}
		if err := spec.Validate(); err != nil {
			return nil, nil, err
		}
		ops = append(ops, &spec)
	}
	return ops[:n], ops[n], nil
}

// scenarioSteps is one scenario executed layer by layer through the same
// public calls scenario.Run makes for a churn-model document.
type scenarioSteps struct {
	world *experiment.Scenario
	res   *core.Result
	ds    *core.Dataset
}

// runScenarioSteps executes spec step by step. With t non-nil the op is
// traced: the program's campaign spans plus the benchmark's build,
// churn-label and infer spans are booked into t.
func runScenarioSteps(spec *scenario.Spec, t *layerTotals) (*scenarioSteps, error) {
	ctx := context.Background()
	var tr *obs.Trace
	if t != nil {
		tr = obs.NewTrace("scenario", spec.Name+"/"+strconv.FormatUint(spec.Seed, 10))
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	root := tr.Root()
	var before, after runtime.MemStats
	start := time.Now()

	span := root.StartChild("build")
	world, err := spec.Build()
	span.End()
	if err != nil {
		return nil, err
	}
	if t != nil {
		runtime.ReadMemStats(&before)
	}
	run, err := world.RunCampaignContext(ctx, spec.BeaconCampaign())
	if err != nil {
		return nil, err
	}
	if t != nil {
		runtime.ReadMemStats(&after)
	}
	span = root.StartChild("churn-label")
	labeled := churn.LabelMeasurements(run.Measurements)
	span.End()
	span, ictx := obs.StartTraceSpan(ctx, "infer")
	res, ds, err := run.InferModelContext(ictx, labeled, churn.Model{BackgroundRate: spec.ChurnRate})
	span.End()
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	if t != nil {
		root.End()
		ex := tr.Export().Root
		build, campaign := child(ex, "build"), child(ex, "campaign")
		churnLabel, infer := child(ex, "churn-label"), child(ex, "infer")
		t.ops++
		t.opWall += wall
		t.build += spanDur(build)
		t.addCampaign(campaign)
		t.churnLabel += spanDur(churnLabel)
		// The document's sampler settings (experiment.InferConfig) on
		// spec.Workers workers (0 selects GOMAXPROCS).
		workers := spec.Workers
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		t.addInfer(infer, sampling{workers: workers, mhBurnIn: 400, hmcBurnIn: 200})
		t.residual += wall - spanDur(build) - spanDur(campaign) - spanDur(churnLabel) - spanDur(infer)
		t.campaignAlloc += after.TotalAlloc - before.TotalAlloc
		t.updates += run.UpdatesSent
		t.entries += len(run.Entries)
		t.paths += len(run.Measurements)
	}
	return &scenarioSteps{world: world, res: res, ds: ds}, nil
}

// score tallies the run the way scenario.Run scores its outcome.
func (s *scenarioSteps) score() quality {
	truth := make(map[bgp.ASN]bool)
	for _, asn := range s.world.TrueDampers() {
		truth[asn] = true
	}
	detectable := s.world.DetectableDampers()
	q := quality{planted: len(truth), detectable: len(detectable)}
	for _, asn := range s.ds.Nodes() {
		if sum, ok := s.res.Lookup(uint32(asn)); ok && sum.Category.Positive() {
			q.flagged++
			if truth[asn] {
				q.truePos++
			}
		}
	}
	for _, asn := range detectable {
		if sum, ok := s.res.Lookup(uint32(asn)); ok && sum.Category.Positive() {
			q.found++
		}
	}
	return q
}

// saneOutcome checks an outcome's internal consistency.
func saneOutcome(out *scenario.Outcome) bool {
	return out != nil && out.TruePositives+out.FalsePositives == out.Flagged &&
		out.Detectable <= out.Planted && out.DetectableRecall >= 0 && out.DetectableRecall <= 1
}

// outcomeQuality is scenario.Run's outcome as a tally.
func outcomeQuality(out *scenario.Outcome) quality {
	return quality{
		planted:    out.Planted,
		detectable: out.Detectable,
		found:      int(out.DetectableRecall*float64(out.Detectable) + 0.5),
		flagged:    out.Flagged,
		truePos:    out.TruePositives,
	}
}

// scenarioReference runs the reference worlds layer by layer: their
// tallies give recall and precision, their chains core.ess_p10.
func scenarioReference(procs int) (quality, float64, error) {
	specs, _, err := scenarioSpecs(referenceSeed, scenarioReferenceWorlds, procs)
	if err != nil {
		return quality{}, 0, err
	}
	steps := make([]*scenarioSteps, len(specs))
	errs := make([]error, len(specs))
	forEachOp(len(specs), procs, func(i int) {
		steps[i], errs[i] = runScenarioSteps(specs[i], nil)
	})
	var q quality
	var ess essPool
	for i, s := range steps {
		if errs[i] != nil {
			return quality{}, 0, errs[i]
		}
		q.add(s.score())
		ess.add(s.res)
	}
	return q, ess.p10(), nil
}

func runScenarioChurn(cfg runConfig) (result, error) {
	// The untraced run keeps nproc ops in flight, each op's chains on one
	// worker. The traced run goes one op at a time, so span self times and
	// the campaign's heap allocation belong to one op.
	clients := cfg.procs
	n := opCount(cfg.seconds*clients, scenarioOpSeconds)
	if cfg.traced {
		clients = 1
		n = opCount(cfg.seconds, scenarioOpSeconds/float64(cfg.procs)) / 2
	}
	var specs []*scenario.Spec
	setup, err := timeSetup(func() error {
		var warmup *scenario.Spec
		var err error
		if specs, warmup, err = scenarioSpecs(cfg.seed, n, clients); err != nil {
			return err
		}
		_, err = scenario.Run(context.Background(), warmup)
		return err
	})
	if err != nil {
		return result{}, err
	}

	ops := make([]opRecord, len(specs))
	outcomes := make([]*scenario.Outcome, len(specs))
	runOp := func(i int) {
		start := time.Now()
		out, err := scenario.Run(context.Background(), specs[i])
		ops[i] = opRecord{Latency: time.Since(start), OK: err == nil && saneOutcome(out)}
		outcomes[i] = out
	}
	if !cfg.traced {
		ph := beginPhase()
		forEachOp(len(specs), clients, runOp)
		st := ph.end()
		// The first ops re-run layer by layer must reproduce scenario.Run's
		// outcome.
		forEachOp(min(scenarioChecked, len(specs)), cfg.procs, func(i int) {
			s, err := runScenarioSteps(specs[i], nil)
			ops[i].OK = ops[i].OK && err == nil && s.score() == outcomeQuality(outcomes[i])
		})
		q, ess, err := scenarioReference(cfg.procs)
		if err != nil {
			return result{}, err
		}
		m := endToEnd(ops, st, setup)
		m["ess_per_cpu_s"] = metric{essPerCPU(ess, st.CPU/time.Duration(len(ops))), "1/s"}
		q.metrics(m)
		return finish(ops, checks{}, m), nil
	}

	// The traced run times each op through scenario.Run and layer by layer
	// under a trace, back to back, alternating which goes first so drift
	// in machine speed cancels out of obs.trace_overhead_pct. The layered
	// run must reproduce scenario.Run's outcome.
	var t layerTotals
	traced := make([]opRecord, len(specs))
	steps := make([]*scenarioSteps, len(specs))
	for i, spec := range specs {
		tracedOp := func() {
			start := time.Now()
			var err error
			steps[i], err = runScenarioSteps(spec, &t)
			traced[i] = opRecord{Latency: time.Since(start), OK: err == nil}
		}
		if i%2 == 0 {
			runOp(i)
			tracedOp()
		} else {
			tracedOp()
			runOp(i)
		}
		traced[i].OK = traced[i].OK && ops[i].OK && steps[i].score() == outcomeQuality(outcomes[i])
	}
	_, ess, err := scenarioReference(cfg.procs)
	if err != nil {
		return result{}, err
	}
	return finish(append(ops, traced...), checks{}, perLayerResult(t.metrics(ess, traceOverhead(ops, traced)))), nil
}
