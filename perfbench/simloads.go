package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minReps is the fewest cold repetitions a sweep or cells run makes, so
// a run on any seed can compare its digests across repetitions.
const minReps = 3

// setupsPerRep is how many set-up-only workers follow each repetition. A
// set-up (process start, package init and the workload's set-up call)
// takes a few milliseconds, so one reading is mostly scheduling noise;
// setup_s is the median of every repetition's and every set-up-only
// worker's, dozens of readings spread over the run.
const setupsPerRep = 8

// spawnedRep is one worker repetition as the parent saw it.
type spawnedRep struct {
	repResult
	setupS   float64
	maxRSSMB float64
}

// spawnRep runs one repetition in a fresh worker process, so every
// repetition starts with an empty runner memo, a fresh heap and no
// result store, as a user's invocation does. flags are extra worker
// flags: --trace-dir or --setup-only.
func spawnRep(cfg runConfig, flags ...string) (spawnedRep, error) {
	args := append([]string{"worker", "--workload", cfg.workload, "--seed", fmt.Sprint(simSeed(cfg.workload, cfg.seed))}, flags...)
	cmd := exec.Command(cfg.self, args...)
	cmd.Env = workerEnv()
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	spawn := time.Now()
	if err := cmd.Run(); err != nil {
		return spawnedRep{}, fmt.Errorf("worker %s: %w", cfg.workload, err)
	}
	var rep spawnedRep
	if err := json.Unmarshal(out.Bytes(), &rep.repResult); err != nil {
		return rep, fmt.Errorf("worker %s output: %w", cfg.workload, err)
	}
	rep.setupS = float64(rep.ReadyUnixNS-spawn.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// workerEnv is this process's environment without the result store
// settings, so no repetition can be served from a store.
func workerEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "ATHENA_STORE=") || strings.HasPrefix(kv, "ATHENA_STORE_NAMESPACE=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// runSimWorkload measures the sweep or cells workload: cold repetitions
// until cfg.seconds have passed (at least minReps), each checked against
// the golden digests on the default seed and against the first
// repetition on any seed. With cfg.trace it instead runs one untraced
// and one traced repetition and reports the per-layer metrics.
func runSimWorkload(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	if cfg.trace {
		plain, err := spawnRep(cfg)
		if err != nil {
			return nil, err
		}
		traced, err := spawnRep(cfg, "--trace-dir", cfg.outDir)
		if err != nil {
			return nil, err
		}
		for _, r := range []spawnedRep{plain, traced} {
			out.check(checkRep(cfg, r, plain))
		}
		for k, v := range traced.Layers {
			out.layer(k, v)
		}
		out.layer("trace_overhead_frac", traced.WallS/plain.WallS-1)
		out.note("traced repetition: %.3f s wall against %.3f s untraced", traced.WallS, plain.WallS)
		return out, nil
	}

	var reps []spawnedRep
	var setup []float64
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		r, err := spawnRep(cfg)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		out.check(checkRep(cfg, r, reps[0]))
		setup = append(setup, r.setupS)
		for i := 0; i < setupsPerRep; i++ {
			s, err := spawnRep(cfg, "--setup-only")
			if err != nil {
				return nil, err
			}
			setup = append(setup, s.setupS)
		}
	}
	out.digests = reps[0].Digests
	var rss, wall, cpu []float64
	for _, r := range reps {
		rss = append(rss, r.maxRSSMB)
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
	}
	out.metric("setup_s", median(setup), "s")
	out.metric("max_rss_mb", median(rss), "MB")
	out.metric("cpu_s", median(cpu), "s")
	out.metric("wall_s", median(wall), "s")
	switch cfg.workload {
	case "sweep":
		out.metric("sweep_s", median(wall), "s")
	case "cells":
		ues := make([]float64, len(wall))
		for i, w := range wall {
			ues[i] = cellsUEs * cellsDuration.Seconds() / w
		}
		out.metric("ue_s_per_s", median(ues), "1/s")
	}
	out.note("%d cold repetitions on seed %d, wall %s s; setup_s over %d set-ups", len(reps), simSeed(cfg.workload, cfg.seed), fmtList(wall), len(setup))
	return out, nil
}

// checkRep verifies one repetition: a cold memo, the same memo size as
// the first repetition, no errors, and every digest equal to the golden
// digest (on the default seed, so always for the sweep) or to the first
// repetition's (other seeds). It
// returns the number of checks made and the failures.
func checkRep(cfg runConfig, r, first spawnedRep) (int, []string) {
	var fails []string
	if r.MemoStart != 0 {
		fails = append(fails, fmt.Sprintf("repetition started with %d memo entries, want a cold memo", r.MemoStart))
	}
	if r.MemoEnd != first.MemoEnd {
		fails = append(fails, fmt.Sprintf("repetition memoized %d configs, first memoized %d", r.MemoEnd, first.MemoEnd))
	}
	fails = append(fails, r.Errors...)

	want, ref := first.Digests, "first repetition"
	if g, ok := goldenDigests(cfg.workload, simSeed(cfg.workload, cfg.seed)); ok {
		want, ref = g, "golden"
	}
	if len(r.Digests) != len(want) {
		fails = append(fails, fmt.Sprintf("%d digests, %s has %d", len(r.Digests), ref, len(want)))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got := r.Digests[k]; got != want[k] {
			fails = append(fails, fmt.Sprintf("%s digest %.16s differs from %s %.16s", k, got, ref, want[k]))
		}
	}
	return 3 + len(r.Errors) + len(want), fails
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
