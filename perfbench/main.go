// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload against the program's public
// entry points, checks the outputs, and prints one JSON result line:
//
//	perfbench --workload scenario-churn --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs each op of a
// half-length list untraced and traced and reports the per-layer metrics.
// The exit status is 0 only when every output check passed. See README.md.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// runConfig is one invocation.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	// procs bounds concurrent clients and sampler workers (nproc).
	procs int
}

var workloads = map[string]func(runConfig) (result, error){
	"scenario-churn": runScenarioChurn,
	"infer-paper":    runInferPaper,
	"serve-mixed":    runServeMixed,
}

// minOps keeps every op list long enough for op_tail_ms (the 10 samples
// beyond its percentile must lie above the median).
const minOps = 2*tailSamples + 4

// opCount sizes an op list to last about seconds at opSeconds per op.
func opCount(seconds int, opSeconds float64) int {
	n := int(math.Ceil(float64(seconds) / opSeconds))
	if n < minOps {
		n = minOps
	}
	return n
}

func main() {
	workload := flag.String("workload", "", "scenario-churn, infer-paper or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long the timed phase should last on the reference machine")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload {scenario-churn|infer-paper|serve-mixed} --seed N --seconds N --trace {0|1}")
		os.Exit(2)
	}
	res, err := run(runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, procs: runtime.GOMAXPROCS(0)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(emit(res))
}
