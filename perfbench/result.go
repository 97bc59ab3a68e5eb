package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEnd are the end-to-end metrics every timed run prints, with
// their units. They are defined on every workload; see README.md for
// what each means on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"cpu_s", "s"},
	{"wall_s", "s"},
}

// perLayer are the per-layer metrics every traced run prints, with
// their units. A layer the workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range cpuLayers {
		add("s", l+".cpu_s")
	}
	add("MB", "go.alloc_mb")
	add("count", "go.mallocs", "go.gc_cycles", "sim.events_fired")
	add("ns", "sim.host_ns_per_event")
	add("ms", "sim.barrier_wait_p50_ms", "sim.barrier_wait_p99_ms")
	add("count", "sim.windows", "ran.harq_retx")
	add("bytes", "ran.tb_wasted_bytes")
	add("count", "ran.grants")
	add("frac", "runner.memo_hit_ratio")
	add("ms", "runner.queue_wait_p99_ms")
	for _, id := range goldenSweepIDs() {
		add("s", "exp."+id+".wall_s")
	}
	add("us", "http.rtt_p50_us", "http.rtt_p99_us", "http.handler_p50_us", "http.handler_p99_us",
		"http.transport_p50_us", "codec.decode_p50_us", "session.feed_p50_us", "session.feed_p99_us",
		"core.ingest_p50_us", "core.digest_us_per_batch")
	add("count", "session.allocs_per_batch")
	add("us", "session.overview_us", "obs.prometheus_us")
	add("ms", "loadgen.late_p99_ms")
	add("count", "loadgen.backlog_max")
	add("frac", "trace_overhead_frac")
	return out
}()

// outcome collects one run's checks, metrics and notes.
type outcome struct {
	attempted, failed int64
	failures          []string
	metrics           map[string]float64
	units             map[string]string
	layers            map[string]float64
	notes             []string
	// digests are the checked outputs of the first repetition, kept in
	// the result file; golden.json is recorded from them.
	digests map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, units: map[string]string{}, layers: map[string]float64{}}
}

// check records n checks and the failures among them.
func (o *outcome) check(n int, fails []string) {
	o.attempted += int64(n)
	o.failed += int64(len(fails))
	o.failures = append(o.failures, fails...)
}

// metric records a named result of the workload. The end-to-end ones go
// into the final line; every one is printed by name and unit.
func (o *outcome) metric(name string, v float64, unit string) {
	o.metrics[name] = v
	o.units[name] = unit
}

func (o *outcome) layer(name string, v float64) { o.layers[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the machine-readable result, the last line of stdout.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run: notes, failures and every named metric as
// human-readable lines, the provenance block, then the final JSON line.
// It also writes the whole result to the run's file under outDir, and
// returns whether every check passed.
func (o *outcome) report(w io.Writer, cfg runConfig, prov provenance) (bool, error) {
	if o.attempted == 0 {
		o.check(1, []string{"no output was checked"})
	}
	fin := finalLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if cfg.trace {
		for _, m := range perLayer {
			fin.Metrics[m.name] = metricValue{finite(o.layers[m.name]), m.unit}
		}
	} else {
		o.metric("ok_frac", float64(o.attempted-o.failed)/float64(o.attempted), "frac")
		for _, m := range endToEnd {
			v, ok := o.metrics[m.name]
			if !ok {
				return false, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
			}
			fin.Metrics[m.name] = metricValue{finite(v), m.unit}
		}
	}

	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-24s %14.6g %s\n", n, o.metrics[n], o.units[n])
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "provenance %s\n", provJSON)

	all := struct {
		Provenance provenance             `json:"provenance"`
		Result     finalLine              `json:"result"`
		Metrics    map[string]metricValue `json:"workload_metrics,omitempty"`
		Layers     map[string]float64     `json:"layers,omitempty"`
		Digests    map[string]string      `json:"digests,omitempty"`
		Notes      []string               `json:"notes,omitempty"`
		Failures   []string               `json:"failures,omitempty"`
	}{prov, fin, map[string]metricValue{}, o.layers, o.digests, o.notes, o.failures}
	for n, v := range o.metrics {
		all.Metrics[n] = metricValue{finite(v), o.units[n]}
	}
	enc, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return false, err
	}
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode))
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return false, err
	}

	line, err := json.Marshal(fin)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return fin.Correct, err
}

// finite maps a value JSON cannot carry (an infinite latency from a
// failed request, or a percentile of no samples) to a large sentinel, so
// the result stays printable; the run is already failed in that case.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1e9
	}
	return v
}

// provenance identifies the machine, toolchain, code and run a result
// came from.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	GitDirty   *bool  `json:"git_dirty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// SimSeeds are the seeds the workload's inputs were made from: the
	// given seed for cells, defaultSeed for the sweep, and the source
	// topologies' seeds derived from the given one for serve.
	SimSeeds  []int64 `json:"sim_seeds"`
	MeasuredS float64 `json:"measured_s"`
}

func newProvenance(cfg runConfig) provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		SimSeeds:   inputSeeds(cfg.workload, cfg.seed),
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	// A checkout without git metadata leaves the revision unknown and
	// the dirty flag null; git is not asked, as it would search the
	// parent directories.
	if _, err := os.Stat(".git"); err != nil {
		return p
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			p.GitDirty = &dirty
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
