package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"because/internal/obs"
)

func TestOpSeeds(t *testing.T) {
	a, b, c := opSeeds(7, 50), opSeeds(7, 50), opSeeds(8, 50)
	seen := make(map[uint64]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 op %d: %d then %d", i, a[i], b[i])
		}
		if a[i] == 0 || seen[a[i]] {
			t.Fatalf("op seed %d is zero or repeated", a[i])
		}
		seen[a[i]] = true
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 derive the same op seeds")
	}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSynthesize(t *testing.T) {
	for name, cfg := range map[string]synthConfig{"infer": inferSynth, "campaign": campaignSynth} {
		a, err := synthesize(cfg, 11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := synthesize(cfg, 11)
		c, _ := synthesize(cfg, 12)
		if !bytes.Equal(encode(t, a), encode(t, b)) {
			t.Errorf("%s: seed 11 gave two different observation sets", name)
		}
		if bytes.Equal(encode(t, a), encode(t, c)) {
			t.Errorf("%s: seeds 11 and 12 gave the same observation set", name)
		}
		if len(a.Observations) != cfg.Paths {
			t.Errorf("%s: %d paths, want %d", name, len(a.Observations), cfg.Paths)
		}
		if len(a.Dampers) != cfg.Consistent+cfg.Inconsistent {
			t.Errorf("%s: %d dampers, want %d", name, len(a.Dampers), cfg.Consistent+cfg.Inconsistent)
		}
		for asn := range a.Detectable {
			if !a.Dampers[asn] {
				t.Errorf("%s: AS %d detectable but not planted", name, asn)
			}
		}
		positive := 0
		for _, o := range a.Observations {
			if len(o.Path) == 0 {
				t.Fatalf("%s: empty tomography path", name)
			}
			seen := make(map[uint32]bool)
			for _, asn := range o.Path {
				if seen[uint32(asn)] {
					t.Fatalf("%s: path %v loops", name, o.Path)
				}
				seen[uint32(asn)] = true
			}
			if o.ShowsProperty {
				positive++
			}
		}
		if positive == 0 || positive == len(a.Observations) {
			t.Errorf("%s: %d of %d paths positive", name, positive, len(a.Observations))
		}
	}
}

func TestServePlan(t *testing.T) {
	a, err := newServePlan(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newServePlan(3, 2, 5)
	c, _ := newServePlan(4, 2, 5)
	if !bytes.Equal(encode(t, a.Clients), encode(t, b.Clients)) {
		t.Error("seed 3 gave two different request lists")
	}
	for k := range a.Keys {
		if !bytes.Equal(a.Keys[k].Body, b.Keys[k].Body) || !bytes.Equal(encode(t, a.Keys[k].Set), encode(t, b.Keys[k].Set)) {
			t.Errorf("seed 3 key %d: request bodies differ", k)
		}
	}
	if bytes.Equal(encode(t, a.Clients), encode(t, c.Clients)) || bytes.Equal(a.Keys[0].Body, c.Keys[0].Body) {
		t.Error("seeds 3 and 4 gave the same plan")
	}
	if _, err := newServePlan(3, 2, serveMaxKeys); err == nil {
		t.Error("a plan with more keys than the cache-safe maximum was accepted")
	}
}

// checkServePlan verifies the properties that make every X-Cache outcome
// exact whatever the interleaving: keys fit the cache, each client owns
// its keys, a key's first request is its only miss, and the shares are
// the stated ones.
func checkServePlan(t *testing.T, plan *servePlan, clients, keysPerClient int) {
	t.Helper()
	if len(plan.Keys) != clients*keysPerClient || len(plan.Keys) > serveMaxKeys || serveMaxKeys > serveCacheCapacity {
		t.Fatalf("%d distinct keys; want %d, within %d and the %d-entry cache", len(plan.Keys), clients*keysPerClient, serveMaxKeys, serveCacheCapacity)
	}
	owner := make(map[int]int)
	churn, streams, total, misses := 0, 0, 0, 0
	for c, ops := range plan.Clients {
		if want := keysPerClient * (1 + serveHitsPerMiss); len(ops) != want {
			t.Errorf("client %d: %d ops, want %d", c, len(ops), want)
		}
		seen := make(map[int]bool)
		for _, op := range ops {
			if o, ok := owner[op.Key]; ok && o != c {
				t.Fatalf("key %d shared by clients %d and %d", op.Key, o, c)
			}
			owner[op.Key] = c
			if op.Hit != seen[op.Key] {
				t.Fatalf("client %d key %d: planned hit=%v, but first use is %v", c, op.Key, op.Hit, !seen[op.Key])
			}
			seen[op.Key] = true
			if !op.Hit {
				misses++
			}
			if op.Stream {
				streams++
			}
			total++
		}
		if len(seen) != keysPerClient {
			t.Errorf("client %d uses %d keys, want %d", c, len(seen), keysPerClient)
		}
	}
	if misses != len(plan.Keys) || total != misses*(1+serveHitsPerMiss) {
		t.Errorf("%d misses in %d requests, want %d and %d hits per miss", misses, total, len(plan.Keys), serveHitsPerMiss)
	}
	for _, k := range plan.Keys {
		if k.Opts.Model == "churn" {
			churn++
		}
	}
	if churn != len(plan.Keys)/serveChurnEvery {
		t.Errorf("%d churn-model keys of %d, want 1 in %d", churn, len(plan.Keys), serveChurnEvery)
	}
	if want := clients * (keysPerClient * (1 + serveHitsPerMiss) / serveStreamEvery); streams != want {
		t.Errorf("%d streamed requests of %d, want %d (1 in %d per client)", streams, total, want, serveStreamEvery)
	}
}

// Any client count up to the key maximum gets a valid plan at the
// recorded run length, so serve-mixed runs on hosts of any size.
func TestServePlanClients(t *testing.T) {
	for _, clients := range []int{1, 2, 4, 5} {
		n := serveKeysPerClient(25, serveClients(clients))
		plan, err := newServePlan(7, serveClients(clients), n)
		if err != nil {
			t.Fatalf("%d clients: %v", clients, err)
		}
		checkServePlan(t, plan, clients, n)
	}
	if got := serveClients(200); got != serveMaxKeys {
		t.Errorf("200 CPUs run %d clients, want %d", got, serveMaxKeys)
	}
	if n := serveKeysPerClient(25, serveMaxKeys); n != 1 {
		t.Errorf("%d clients get %d keys each, want 1", serveMaxKeys, n)
	}
}

func TestScenarioSpecs(t *testing.T) {
	canonical := func(seed uint64) [][]byte {
		ops, warmup, err := scenarioSpecs(seed, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		if warmup.Seed != scenarioWarmupSeed {
			t.Fatalf("warm-up seed %d, want the fixed %d", warmup.Seed, scenarioWarmupSeed)
		}
		var out [][]byte
		seeds := make(map[uint64]bool)
		for _, s := range append(ops, warmup) {
			if seeds[s.Seed] {
				t.Fatalf("scenario seed %d used twice", s.Seed)
			}
			seeds[s.Seed] = true
			data, err := s.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		return out
	}
	a, b, c := canonical(5), canonical(5), canonical(6)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("seed 5 document %d: documents differ", i)
		}
		// The last document is the warm-up, the same for every seed.
		if last := i == len(a)-1; bytes.Equal(a[i], c[i]) != last {
			t.Errorf("seeds 5 and 6 document %d: same=%v", i, !last)
		}
	}
}

func TestInferPlan(t *testing.T) {
	ops := inferPlan(9, 24)
	if !bytes.Equal(encode(t, ops), encode(t, inferPlan(9, 24))) {
		t.Error("seed 9 gave two different op lists")
	}
	if bytes.Equal(encode(t, ops), encode(t, inferPlan(10, 24))) {
		t.Error("seeds 9 and 10 gave the same op list")
	}
	distinct := make(map[uint64]bool)
	for i, op := range ops {
		if op.Repeat {
			if ops[i-2].Repeat || ops[i-2].Seed != op.Seed {
				t.Errorf("op %d repeats %+v, not a distinct op two before", i, ops[i-2])
			}
			continue
		}
		if distinct[op.Seed] {
			t.Errorf("op %d reuses seed %d", i, op.Seed)
		}
		distinct[op.Seed] = true
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{10, 0}, {20, 0}, {21, 0}, {22, 54}, {23, 56}, {25, 60}, {30, 66}, {40, 75}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for n := 1; n <= 2000; n++ {
		p := tailPercentile(n)
		if p == 0 {
			continue
		}
		rank := (p*n + 99) / 100
		if n-rank < tailSamples || rank <= (n+1)/2 {
			t.Fatalf("n=%d: p%d has rank %d", n, p, rank)
		}
	}
}

// Every workload's op list at the recorded run length has a tail.
func TestOpListsHaveTails(t *testing.T) {
	const seconds = 30
	for name, n := range map[string]int{
		"scenario-churn": opCount(seconds, scenarioOpSeconds),
		"infer-paper":    opCount(seconds, inferOpSeconds),
		"serve-mixed":    2 * serveKeysPerClient(seconds, 2) * (1 + serveHitsPerMiss),
	} {
		if tailPercentile(n) == 0 {
			t.Errorf("%s: %d ops leave no tail beyond the median", name, n)
		}
	}
	if tailPercentile(opCount(1, inferOpSeconds)) == 0 {
		t.Error("the shortest op list has no tail")
	}
}

func TestAddInferReplaysThePool(t *testing.T) {
	// Two workers, three chains pre-created at t=0: mh[00] and mh[01] run
	// at once and end at 100 and 120; hmc waits for the first free worker
	// and ends at 300.
	sample := &obs.SpanExport{Name: "sample", StartUS: 0, DurUS: 300, Children: []*obs.SpanExport{
		{Name: "mh[00]", StartUS: 0, DurUS: 100, Attrs: []obs.TraceAttr{{Key: "sweeps", Value: 1200}, {Key: "accepted", Value: 30}, {Key: "proposed", Value: 100}}},
		{Name: "mh[01]", StartUS: 0, DurUS: 120, Attrs: []obs.TraceAttr{{Key: "sweeps", Value: 1200}, {Key: "accepted", Value: 20}, {Key: "proposed", Value: 100}}},
		{Name: "hmc", StartUS: 0, DurUS: 300, Attrs: []obs.TraceAttr{{Key: "sweeps", Value: 400}, {Key: "divergent", Value: 2}}},
	}}
	infer := &obs.SpanExport{Name: "infer", DurUS: 310, Children: []*obs.SpanExport{sample}}
	var lt layerTotals
	lt.addInfer(infer, sampling{workers: 2, mhBurnIn: 400, hmcBurnIn: 200})
	if lt.mh != 220*time.Microsecond || lt.hmc != 200*time.Microsecond {
		t.Errorf("mh %v hmc %v, want 220µs and 200µs of running", lt.mh, lt.hmc)
	}
	if lt.chainWait != 100*time.Microsecond {
		t.Errorf("chain wait %v, want 100µs", lt.chainWait)
	}
	if lt.mhSweeps != 3200 || lt.hmcIters != 600 || lt.accepted != 50 || lt.proposed != 200 || lt.divergent != 2 {
		t.Errorf("counts %+v", lt)
	}
	if lt.dataset != 10*time.Microsecond {
		t.Errorf("dataset (infer self time) %v, want 10µs", lt.dataset)
	}
}

func TestAddCampaignSplitsTheSpan(t *testing.T) {
	// The span names the program records: experiment's "campaign", with
	// collector's "collector.attach" and label's "label" under it.
	campaign := &obs.SpanExport{Name: "campaign", DurUS: 1000, Children: []*obs.SpanExport{
		{Name: "collector.attach", StartUS: 0, DurUS: 30},
		{Name: "label", StartUS: 900, DurUS: 90},
	}}
	var lt layerTotals
	lt.addCampaign(campaign)
	if lt.attach != 30*time.Microsecond || lt.label != 90*time.Microsecond || lt.netsim != 880*time.Microsecond {
		t.Errorf("attach %v label %v netsim %v, want 30µs, 90µs and 880µs", lt.attach, lt.label, lt.netsim)
	}
}

// A real traced op books every simulator layer, so the span names the
// benchmark looks up are the ones the program records.
func TestScenarioStepsBookEveryLayer(t *testing.T) {
	specs, _, err := scenarioSpecs(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTotals
	if _, err := runScenarioSteps(specs[0], &lt); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]time.Duration{
		"build": lt.build, "attach": lt.attach, "netsim": lt.netsim, "label": lt.label,
		"churn label": lt.churnLabel, "dataset": lt.dataset, "mh": lt.mh, "hmc": lt.hmc,
	} {
		if d <= 0 {
			t.Errorf("%s booked %v", name, d)
		}
	}
	if lt.updates == 0 || lt.entries == 0 || lt.paths == 0 {
		t.Errorf("counts: %d updates, %d entries, %d paths", lt.updates, lt.entries, lt.paths)
	}
}
