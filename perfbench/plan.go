package main

// Seeded input generators. Every workload's op list, observation set and
// request body is a pure function of the workload seed (and of sizes fixed
// in this file), so two runs with one seed do exactly the same work and
// their quality metrics are exact.

import (
	"encoding/json"
	"fmt"
	"sort"

	"because"
	"because/internal/bgp"
	"because/internal/serve"
	"because/internal/stats"
	"because/internal/topology"
)

// opSeeds derives n distinct, non-zero op seeds from the workload seed.
func opSeeds(seed uint64, n int) []uint64 {
	rng := stats.NewRNG(seed ^ 0x5eed0f0b5)
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := rng.Uint64() >> 16 // keep seeds readable and far from overflow in seed+k derivations
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// synthConfig sizes one synthetic measurement campaign: a generated
// topology, vantage points and beacon origins, one valley-free path per
// measured (vantage point, origin) pair, and a planted deployment of
// consistent and inconsistent dampers with a § 7.2 miss rate on the
// labels.
type synthConfig struct {
	Topology topology.GenConfig
	VPs      int
	Origins  int
	// Paths is how many (vantage point, origin) pairs are measured; at
	// most VPs × Origins.
	Paths        int
	Consistent   int
	Inconsistent int
	// MinPaths is how many measured paths a transit AS needs to be
	// eligible as a damper.
	MinPaths int
	MissRate float64
}

// campaignSynth is one serve-mixed request: the size of one corpus
// campaign's labeled output (churn-tomography measures 3 sites from 12
// vantage points).
var campaignSynth = synthConfig{
	Topology: topology.GenConfig{
		Tier1: 4, Transit: 24, Stubs: 48,
		TransitMaxProviders: 3, TransitPeerDegree: 1.5, StubMaxProviders: 2,
		BaseASN: 50000,
	},
	VPs: 12, Origins: 3, Paths: 36,
	Consistent: 3,
	MissRate:   0.05,
}

// synthSet is one generated observation set with its ground truth.
type synthSet struct {
	Observations []because.PathObservation
	// Dampers is the planted deployment; Detectable the dampers that damp
	// at least one measured path.
	Dampers    map[because.ASN]bool
	Detectable map[because.ASN]bool
}

// synthesize generates the observation set for cfg from seed.
func synthesize(cfg synthConfig, seed uint64) (*synthSet, error) {
	if cfg.Paths > cfg.VPs*cfg.Origins {
		return nil, fmt.Errorf("synth: %d paths exceed %d vantage points × %d origins", cfg.Paths, cfg.VPs, cfg.Origins)
	}
	rng := stats.NewRNG(seed)
	g, err := topology.Generate(cfg.Topology, rng.Split())
	if err != nil {
		return nil, err
	}
	var stubs []bgp.ASN
	for _, asn := range g.ASNs() {
		if g.AS(asn).Tier == topology.TierStub {
			stubs = append(stubs, asn)
		}
	}
	if len(stubs) < cfg.Origins+cfg.VPs {
		return nil, fmt.Errorf("synth: %d stubs cannot host %d origins and %d vantage points", len(stubs), cfg.Origins, cfg.VPs)
	}
	origins := pick(rng, stubs, cfg.Origins, nil)
	isOrigin := make(map[bgp.ASN]bool, len(origins))
	for _, o := range origins {
		isOrigin[o] = true
	}
	vps := pick(rng, stubs, cfg.VPs, isOrigin)

	// One valley-free path per measured pair, in a seeded pair order.
	walk := rng.Split()
	var paths [][]bgp.ASN // full paths, vantage point first, origin last
	for _, p := range rng.Perm(len(vps) * len(origins)) {
		if len(paths) == cfg.Paths {
			break
		}
		if path := valleyFree(g, vps[p/len(origins)], origins[p%len(origins)], walk); path != nil {
			paths = append(paths, path)
		}
	}
	if len(paths) < cfg.Paths {
		return nil, fmt.Errorf("synth: only %d of %d paths are routable", len(paths), cfg.Paths)
	}

	// Plant dampers among the transit ASes measured on at least MinPaths
	// paths. An AS learns a route from the next hop toward the origin;
	// an inconsistent damper spares one of the next hops it is measured
	// through (the AS 701 pattern).
	nextHops := make(map[bgp.ASN]map[bgp.ASN]bool)
	measuredOn := make(map[bgp.ASN]int)
	for _, path := range paths {
		for i := 0; i < len(path)-1; i++ {
			a := path[i]
			measuredOn[a]++
			if nextHops[a] == nil {
				nextHops[a] = make(map[bgp.ASN]bool)
			}
			nextHops[a][path[i+1]] = true
		}
	}
	var candidates []bgp.ASN
	for asn := range nextHops {
		if g.AS(asn).Tier == topology.TierTransit && measuredOn[asn] >= cfg.MinPaths {
			candidates = append(candidates, asn)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	if len(candidates) < cfg.Consistent+cfg.Inconsistent {
		return nil, fmt.Errorf("synth: %d measured transit ASes cannot host %d dampers", len(candidates), cfg.Consistent+cfg.Inconsistent)
	}
	consistent := make(map[bgp.ASN]bool)
	spared := make(map[bgp.ASN]bgp.ASN)
	for _, asn := range pick(rng, candidates, len(candidates), nil) {
		switch {
		case len(spared) < cfg.Inconsistent && len(nextHops[asn]) >= 2:
			hops := make([]bgp.ASN, 0, len(nextHops[asn]))
			for h := range nextHops[asn] {
				hops = append(hops, h)
			}
			sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
			spared[asn] = hops[rng.Intn(len(hops))]
		case len(consistent) < cfg.Consistent:
			consistent[asn] = true
		}
	}
	if len(spared) < cfg.Inconsistent {
		return nil, fmt.Errorf("synth: only %d multi-homed candidates for %d inconsistent dampers", len(spared), cfg.Inconsistent)
	}

	set := &synthSet{
		Dampers:    make(map[because.ASN]bool),
		Detectable: make(map[because.ASN]bool),
	}
	for asn := range consistent {
		set.Dampers[because.ASN(asn)] = true
	}
	for asn := range spared {
		set.Dampers[because.ASN(asn)] = true
	}
	for _, path := range paths {
		positive := false
		tomo := make([]because.ASN, len(path)-1)
		for i := 0; i < len(path)-1; i++ {
			a := path[i]
			tomo[i] = because.ASN(a)
			hop, inconsistent := spared[a]
			if consistent[a] || (inconsistent && path[i+1] != hop) {
				positive = true
				set.Detectable[because.ASN(a)] = true
			}
		}
		if positive && rng.Bernoulli(cfg.MissRate) {
			positive = false
		}
		set.Observations = append(set.Observations, because.PathObservation{Path: tomo, ShowsProperty: positive})
	}
	return set, nil
}

// pick returns up to n distinct elements of pool not in exclude, in a
// seeded order.
func pick(rng *stats.RNG, pool []bgp.ASN, n int, exclude map[bgp.ASN]bool) []bgp.ASN {
	var out []bgp.ASN
	for _, i := range rng.Perm(len(pool)) {
		if len(out) == n {
			break
		}
		if !exclude[pool[i]] {
			out = append(out, pool[i])
		}
	}
	return out
}

// ancestors maps every AS reachable from start by climbing provider
// links to its climb depth (start itself at 0), breadth first.
func ancestors(g *topology.Graph, start bgp.ASN) map[bgp.ASN]int {
	depth := map[bgp.ASN]int{start: 0}
	frontier := []bgp.ASN{start}
	for len(frontier) > 0 {
		var next []bgp.ASN
		for _, a := range frontier {
			for _, p := range g.AS(a).Providers() {
				if _, ok := depth[p]; !ok {
					depth[p] = depth[a] + 1
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return depth
}

// climb returns a provider chain from start up to top that is depth
// steps long, choosing among equally short routes at random.
func climb(g *topology.Graph, start, top bgp.ASN, up map[bgp.ASN]int, rng *stats.RNG) []bgp.ASN {
	// Walk down from top through customers whose depth decreases by one.
	chain := []bgp.ASN{top}
	for cur := top; cur != start; {
		var steps []bgp.ASN
		for _, c := range g.AS(cur).Customers() {
			if d, ok := up[c]; ok && d == up[cur]-1 {
				steps = append(steps, c)
			}
		}
		cur = steps[rng.Intn(len(steps))]
		chain = append(chain, cur)
	}
	// Reverse into start-first order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// valleyFree returns a shortest Gao–Rexford path from vantage point vp to
// origin: up vp's provider chain to a common ancestor (or to a tier-1
// that peers with one of the origin's), and down the origin's provider
// chain. Ties between equally short paths are broken at random. It
// returns nil when no such path exists.
func valleyFree(g *topology.Graph, vp, origin bgp.ASN, rng *stats.RNG) []bgp.ASN {
	upV, upO := ancestors(g, vp), ancestors(g, origin)
	type join struct{ a, b bgp.ASN } // a on vp's side, b on the origin's (a == b: common ancestor)
	best, bestLen := []join(nil), -1
	consider := func(j join, n int) {
		switch {
		case bestLen < 0 || n < bestLen:
			best, bestLen = []join{j}, n
		case n == bestLen:
			best = append(best, j)
		}
	}
	for _, a := range sortedKeys(upV) {
		if d, ok := upO[a]; ok {
			consider(join{a, a}, upV[a]+d)
		}
	}
	if bestLen < 0 {
		// No common ancestor: cross one peering between the two climbs.
		for _, a := range sortedKeys(upV) {
			for _, n := range g.AS(a).Peers() {
				if d, ok := upO[n]; ok {
					consider(join{a, n}, upV[a]+d+1)
				}
			}
		}
	}
	if bestLen < 0 {
		return nil
	}
	j := best[rng.Intn(len(best))]
	path := climb(g, vp, j.a, upV, rng)
	down := climb(g, origin, j.b, upO, rng)
	if j.a == j.b {
		down = down[:len(down)-1]
	}
	for i := len(down) - 1; i >= 0; i-- {
		path = append(path, down[i])
	}
	return path
}

func sortedKeys(m map[bgp.ASN]int) []bgp.ASN {
	out := make([]bgp.ASN, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Serve-mixed request plan.

// serve-mixed's request mix. The shares are chosen, not measured: becaused
// has no recorded traffic to take them from.
const (
	// serveCacheCapacity is becaused's default LRU size. A run's distinct
	// keys must fit in it, so whatever the interleaving a key's first
	// request misses and every later one hits; that caps a run at
	// serveMaxKeys misses.
	serveCacheCapacity = 128
	serveMaxKeys       = 96
	// serveHitsPerMiss is the fixed hit-to-miss ratio. With the misses
	// capped, the hits are what fills a run: at 1000 hits per miss a
	// 25 s run on the reference machine holds all 96 keys, and the
	// misses (about 100 ms of CPU each) still carry about a fifth of the
	// run's CPU, so both the write and the read path show in the
	// aggregate metrics.
	serveHitsPerMiss = 1000
	// Every 4th key asks for model=churn and every 4th request of a
	// client streams (?stream=1): enough of each for two dozen churn
	// misses and SSE misses per run, while the default rfd model and the
	// synchronous reply stay the main path.
	serveChurnEvery  = 4
	serveChurnRate   = 0.1
	serveStreamEvery = 4
)

// serveKey is one distinct inference request: a campaign-sized
// observation set under default sampler options.
type serveKey struct {
	Body []byte
	Set  *synthSet
	Opts because.Options
}

// serveOp is one planned request.
type serveOp struct {
	Key    int
	Stream bool
	// Hit is the planned X-Cache outcome: a key's first request misses,
	// every repeat hits.
	Hit bool
}

// servePlan is serve-mixed's whole input: the distinct keys and each
// client's request list over its own key partition.
type servePlan struct {
	Keys    []serveKey
	Clients [][]serveOp
}

// newServePlan builds the plan for clients closed-loop clients with
// keysPerClient distinct keys each.
func newServePlan(seed uint64, clients, keysPerClient int) (*servePlan, error) {
	if clients < 1 || keysPerClient < 1 || clients*keysPerClient > serveMaxKeys {
		return nil, fmt.Errorf("serve plan: %d clients × %d keys is not within 1 to %d keys", clients, keysPerClient, serveMaxKeys)
	}
	plan := &servePlan{Clients: make([][]serveOp, clients)}
	seeds := opSeeds(seed, clients*keysPerClient)
	for k, s := range seeds {
		set, err := synthesize(campaignSynth, s)
		if err != nil {
			return nil, err
		}
		key := serveKey{Set: set, Opts: because.Options{Seed: s}}
		req := serve.InferRequest{Options: serve.RequestOptions{Seed: s}}
		if k%serveChurnEvery == serveChurnEvery-1 {
			req.Options.Model, req.Options.ChurnRate = because.ModelChurn, serveChurnRate
			key.Opts.Model, key.Opts.ChurnRate = because.ModelChurn, serveChurnRate
		}
		for _, o := range set.Observations {
			req.Observations = append(req.Observations, serve.Observation{Path: o.Path, Positive: o.ShowsProperty})
		}
		if key.Body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		plan.Keys = append(plan.Keys, key)
	}
	// Client c owns keys c, c+clients, c+2·clients, … . Its list is one
	// segment per owned key, in a seeded order: the key's first request
	// (the miss) and then serveHitsPerMiss requests for keys the client
	// has already sent, drawn at random. The misses are spread over the
	// whole run, so writes run beside the other clients' reads.
	rng := stats.NewRNG(seed ^ 0xc11e47)
	for c := range plan.Clients {
		ops := make([]serveOp, 0, keysPerClient*(1+serveHitsPerMiss))
		var sent []int
		for _, j := range rng.Perm(keysPerClient) {
			key := c + j*clients
			sent = append(sent, key)
			ops = append(ops, serveOp{Key: key})
			for h := 0; h < serveHitsPerMiss; h++ {
				ops = append(ops, serveOp{Key: sent[rng.Intn(len(sent))], Hit: true})
			}
		}
		for i := range ops {
			ops[i].Stream = i%serveStreamEvery == serveStreamEvery-1
		}
		plan.Clients[c] = ops
	}
	return plan, nil
}
