package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "athena" // registers the built-in experiment drivers
	"athena/internal/experiment"
	"athena/internal/obs"
	"athena/internal/runner"
	"athena/internal/scenario"
)

// Workload sizes. They are the north star's end-to-end runs and must stay
// fixed: a change to any of them makes results incomparable with the
// golden digests and with earlier runs.
const (
	sweepScale     = 0.25
	cellsUEs       = 1000
	cellsCells     = 10
	cellsHandovers = 10
	cellsDuration  = 2 * time.Second
)

// repResult is one cold repetition of the sweep or cells workload, run in
// a fresh worker process and reported to the parent as JSON.
type repResult struct {
	// ReadyUnixNS is the wall clock at the end of set-up, just before
	// the timed call; the parent subtracts its spawn time.
	ReadyUnixNS int64   `json:"ready_unix_ns"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	// MemoStart and MemoEnd are runner.Default's memo entry counts
	// around the timed call. MemoStart must be 0 (a cold start) and
	// MemoEnd must repeat across repetitions.
	MemoStart int `json:"memo_start"`
	MemoEnd   int `json:"memo_end"`
	// Digests are the outputs checked for correctness: the artifact
	// digests by ID (sweep), or the topology digest under "topology"
	// and each family digest under its family name (cells).
	Digests map[string]string `json:"digests"`
	Errors  []string          `json:"errors,omitempty"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// workerMain runs one repetition in this process and prints its
// repResult. With traceDir set it also enables obs, takes a CPU profile,
// records spans and writes the Chrome trace and profile there. With
// setupOnly it stops after the set-up, reporting only when that ended.
func workerMain(workload string, seed int64, traceDir string, setupOnly bool) error {
	var tc *traceCapture
	if traceDir != "" {
		obs.Enable()
		tc = &traceCapture{tracer: obs.NewTracer()}
	}
	var res repResult
	switch workload {
	case "sweep":
		res = runSweepRep(seed, tc, setupOnly)
	case "cells":
		res = runCellsRep(seed, tc, setupOnly)
	default:
		return fmt.Errorf("worker: unknown workload %q", workload)
	}
	if tc != nil {
		if err := tc.finish(&res, filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", workload, seed))); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// traceCapture is a traced repetition's instrumentation: spans, a CPU
// profile and runtime.MemStats, taken around the timed call only.
type traceCapture struct {
	tracer  *obs.Tracer
	prof    bytes.Buffer
	before  runtime.MemStats
	after   runtime.MemStats
	obsPrev obs.Snapshot
	obsNext obs.Snapshot
}

func (tc *traceCapture) start() error {
	if tc == nil {
		return nil
	}
	tc.obsPrev = obs.TakeSnapshot()
	runtime.ReadMemStats(&tc.before)
	return pprof.StartCPUProfile(&tc.prof)
}

func (tc *traceCapture) stop() {
	if tc == nil {
		return
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&tc.after)
	tc.obsNext = obs.TakeSnapshot()
}

// span opens a benchmark span; it is inert when not tracing.
func (tc *traceCapture) span(name string) obs.Span {
	if tc == nil {
		return obs.Span{}
	}
	return tc.tracer.Begin(name, 0)
}

// counter is an obs counter's growth over the timed call.
func (tc *traceCapture) counter(name string) float64 {
	return float64(tc.obsNext.Counters[name] - tc.obsPrev.Counters[name])
}

// sumCounters sums the growth of every obs counter whose name matches.
func (tc *traceCapture) sumCounters(match func(string) bool) float64 {
	var sum float64
	for name := range tc.obsNext.Counters {
		if match(name) {
			sum += tc.counter(name)
		}
	}
	return sum
}

// finish folds the profile and counters into res.Layers and writes the
// profile and Chrome trace next to base.
func (tc *traceCapture) finish(res *repResult, base string) error {
	if err := os.WriteFile(base+".cpu.pprof", tc.prof.Bytes(), 0o644); err != nil {
		return err
	}
	cpu, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if res.Layers == nil {
		res.Layers = map[string]float64{}
	}
	for l, s := range cpu {
		res.Layers[l+".cpu_s"] = s
	}
	res.Layers["go.alloc_mb"] = float64(tc.after.TotalAlloc-tc.before.TotalAlloc) / (1 << 20)
	res.Layers["go.mallocs"] = float64(tc.after.Mallocs - tc.before.Mallocs)
	res.Layers["go.gc_cycles"] = float64(tc.after.NumGC - tc.before.NumGC)

	// Labelled engines (the shards of a sharded run) count into
	// sim.<name>.events_fired instead of sim.events_fired.
	events := tc.sumCounters(func(name string) bool {
		return strings.HasPrefix(name, "sim.") && strings.HasSuffix(name, ".events_fired")
	})
	res.Layers["sim.events_fired"] = events
	if events > 0 {
		res.Layers["sim.host_ns_per_event"] = res.CPUS * 1e9 / events
	}
	res.Layers["sim.windows"] = tc.counter("sim.windows")
	// Barrier waits are read whole: a worker process starts with an
	// empty histogram.
	bw := tc.obsNext.Histograms["sim.barrier_wait_ns"]
	res.Layers["sim.barrier_wait_p50_ms"] = float64(bw.P50) / 1e6
	res.Layers["sim.barrier_wait_p99_ms"] = float64(bw.P99) / 1e6
	res.Layers["ran.harq_retx"] = tc.counter("ran.harq_retx")
	res.Layers["ran.tb_wasted_bytes"] = tc.counter("ran.tb_wasted_bytes")
	res.Layers["ran.grants"] = tc.sumCounters(func(name string) bool {
		return strings.HasPrefix(name, "ran.grants.")
	})
	if subs := tc.counter("runner.default.submissions"); subs > 0 {
		res.Layers["runner.memo_hit_ratio"] = tc.counter("runner.default.memo_hits") / subs
	}
	qw := tc.obsNext.Histograms["runner.default.queue_wait_ns"]
	res.Layers["runner.queue_wait_p99_ms"] = float64(qw.P99) / 1e6

	return tc.tracer.WriteChromeTraceFile(base + ".trace.json")
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSweepRep regenerates every registry artifact through
// experiment.Sweep at sweepScale, serially at the experiment level, with
// no result store.
func runSweepRep(seed int64, tc *traceCapture, setupOnly bool) repResult {
	sp := tc.span("experiment.All")
	exps := experiment.All()
	sp.End()
	if setupOnly {
		return repResult{ReadyUnixNS: time.Now().UnixNano()}
	}
	opts := experiment.Options{Seed: seed, Scale: sweepScale}
	cfg := experiment.SweepConfig{Options: opts, Parallel: 1}
	if tc != nil {
		cfg.Tracer = tc.tracer
	}
	res := repResult{MemoStart: runner.Default.CacheLen(), Digests: map[string]string{}}
	if err := tc.start(); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.ReadyUnixNS = time.Now().UnixNano()
	cpu0, t0 := cpuTime(), time.Now()
	sp = tc.span("experiment.Sweep")
	results := experiment.Sweep(context.Background(), exps, cfg)
	sp.End()
	res.WallS, res.CPUS = time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
	tc.stop()
	res.MemoEnd = runner.Default.CacheLen()
	for _, r := range results {
		if r.Err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", r.Experiment.ID, r.Err))
			continue
		}
		res.Digests[r.Experiment.ID] = r.Digest
		if tc != nil {
			if res.Layers == nil {
				res.Layers = map[string]float64{}
			}
			res.Layers["exp."+r.Experiment.ID+".wall_s"] = r.Wall.Seconds()
		}
	}
	return res
}

// cellsTopology is the cells workload's deployment: cellsUEs UEs
// round-robin over cellsCells cells, mixed workload families, and the
// first cellsHandovers UEs handing over halfway to their paired cell
// (2k <-> 2k+1), which keeps each handover domain to two cells so the
// run stays sharded.
func cellsTopology(seed int64) scenario.Topology {
	top := scenario.NewMultiCellTopology(cellsUEs, cellsCells)
	top.Seed = seed
	top.Duration = cellsDuration
	for i := 0; i < cellsHandovers; i++ {
		top.UEs[i].Handovers = []scenario.Handover{{At: cellsDuration / 2, ToCell: top.UEs[i].Cell ^ 1}}
	}
	top.MixWorkloads()
	return top
}

// runCellsRep runs the cells topology once, sharded on the gang.
func runCellsRep(seed int64, tc *traceCapture, setupOnly bool) repResult {
	sp := tc.span("scenario.NewMultiCellTopology")
	top := cellsTopology(seed)
	sp.End()
	if setupOnly {
		return repResult{ReadyUnixNS: time.Now().UnixNano()}
	}
	res := repResult{MemoStart: runner.Default.CacheLen(), Digests: map[string]string{}}
	if err := tc.start(); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.ReadyUnixNS = time.Now().UnixNano()
	cpu0, t0 := cpuTime(), time.Now()
	sp = tc.span("scenario.RunTopology")
	tr := scenario.RunTopology(top)
	sp.End()
	res.WallS, res.CPUS = time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
	tc.stop()
	res.MemoEnd = runner.Default.CacheLen()
	if len(tr.Shards) < 2 {
		res.Errors = append(res.Errors, fmt.Sprintf("topology ran on %d shards, want a sharded run", len(tr.Shards)))
	}
	sp = tc.span("scenario.TopologyResult.Digest")
	res.Digests["topology"] = tr.Digest()
	sp.End()
	sp = tc.span("scenario.TopologyResult.FamilyDigests")
	fams := tr.FamilyDigests()
	sp.End()
	kinds := make([]string, 0, len(fams))
	for k, d := range fams {
		res.Digests[string(k)] = d
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	if len(kinds) != len(scenario.WorkloadKinds()) {
		res.Errors = append(res.Errors, fmt.Sprintf("family digests for %v, want all %d families", kinds, len(scenario.WorkloadKinds())))
	}
	return res
}
