package main

import (
	_ "embed"
	"encoding/json"
	"sort"
)

// defaultSeed is the seed the golden digests were recorded on; it is the
// seed the paper's artifacts are published with.
const defaultSeed = 1

// goldenJSON holds the digests the unmodified program produces on
// defaultSeed: every sweep artifact by ID, and the cells topology digest
// with its four family digests.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error())
	}
	return g
}()

// simSeed is the seed a workload's simulation runs on. The sweep always
// regenerates the published artifacts, on defaultSeed: its work varies
// with the seed far more than a change it should detect (over seeds
// 1-10 the sweep allocates 1.4 to 3.2 GB and ran's CPU time ranges from
// 0.7 to 2.7 s), so a seed per run would swamp the measurement. The
// cells topology's work varies by a few percent over seeds, so cells
// runs on the given seed.
func simSeed(workload string, seed int64) int64 {
	if workload == "sweep" {
		return defaultSeed
	}
	return seed
}

// inputSeeds lists the seeds a workload's inputs are made from: serve
// draws several source topologies on seeds derived from the given one.
func inputSeeds(workload string, seed int64) []int64 {
	if workload == "serve" {
		return sourceSeeds(seed)
	}
	return []int64{simSeed(workload, seed)}
}

// goldenDigests returns the recorded digests of a workload, when seed is
// the one they were recorded on.
func goldenDigests(workload string, seed int64) (map[string]string, bool) {
	g, ok := golden[workload]
	return g, ok && seed == defaultSeed
}

// goldenSweepIDs lists the sweep's artifact IDs, sorted.
func goldenSweepIDs() []string {
	ids := make([]string, 0, len(golden["sweep"]))
	for id := range golden["sweep"] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
