package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math.sin", "athena/internal/media.(*Source).Next", "athena/internal/scenario.Run"}, "media"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "athena/internal/ran.(*RAN).onULSlot", "athena/internal/sim.(*Simulator).Run"}, "ran"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.mcall"}, "gc"},
		{nil, "gc"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "http"},
		{[]string{"encoding/json.(*decodeState).object", "athena/internal/session.(*Registry).handleFeed", "net/http.(*conn).serve"}, "session"},
		{[]string{"athena/internal/rtp.Parse", "athena/internal/core.Correlate"}, "other"},
		{[]string{"sort.Slice", "athena.genFigure7", "athena/internal/experiment.Sweep"}, "other"},
		{[]string{"encoding/json.Marshal", "main.prepareStreams", "main.main"}, "bench"},
		{[]string{"athena/internal/sim/sub.F"}, "sim"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFoldCPU(t *testing.T) {
	got := foldCPU([]stackSample{
		{[]string{"athena/internal/media.Tone"}, 30e6},
		{[]string{"runtime.mallocgc", "athena/internal/media.Tone"}, 10e6},
		{[]string{"runtime.gcBgMarkWorker"}, 20e6},
	})
	if len(got) != len(cpuLayers) {
		t.Fatalf("folded into %d layers, want every one of %d", len(got), len(cpuLayers))
	}
	if got["media"] != 0.04 || got["gc"] != 0.02 || got["ran"] != 0 {
		t.Errorf("media %v gc %v ran %v, want 0.04 0.02 0", got["media"], got["gc"], got["ran"])
	}
}

// tracesText is `go tool pprof -traces -unit=ns` output for three
// samples: one with a label line and an inlined frame, one of the
// runtime alone, and one under a net/http handler.
const tracesText = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 60000000ns ( 6.00%)
-----------+-------------------------------------------------------
      kind:  bench
  30000000ns   runtime.mallocgc (inline)
             athena/internal/ran.(*RAN).onULSlot
             athena/internal/sim.(*Simulator).Run
-----------+-------------------------------------------------------
  20000000ns   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
  10000000ns   syscall.Syscall
             net/http.(*conn).serve
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"runtime.mallocgc", "athena/internal/ran.(*RAN).onULSlot", "athena/internal/sim.(*Simulator).Run"}, 30000000},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 20000000},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, 10000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	cpu := foldCPU(got)
	if cpu["ran"] != 0.03 || cpu["gc"] != 0.02 || cpu["http"] != 0.01 || cpu["sim"] != 0 {
		t.Errorf("ran %v gc %v http %v sim %v, want 0.03 0.02 0.01 0", cpu["ran"], cpu["gc"], cpu["http"], cpu["sim"])
	}
	if _, err := parseTraces("not pprof output"); err == nil {
		t.Error("parsed text with no samples section without error")
	}
}

// TestFoldProfile folds a real runtime/pprof profile through the
// toolchain's pprof: the CPU spent spinning must be found.
func TestFoldProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip(err)
	}
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range cpu {
		total += s
	}
	if len(cpu) != len(cpuLayers) || total < 0.1 {
		t.Errorf("folded %v s into %d layers from 300 ms of spinning (x %v)", total, len(cpu), x)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := percentile(xs, 20); got != 1 {
		t.Errorf("p20 = %v, want 1", got)
	}
}

// TestOpenLoopTimesFromDue stalls one request of a fake server and checks
// that the requests due behind it carry the stall in their latency,
// which a generator timing from the send would hide.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 4 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	start := time.Now().Add(50 * time.Millisecond)
	var ops []dueOp
	for i := 0; i < 8; i++ {
		ops = append(ops, dueOp{due: start.Add(time.Duration(i) * 10 * time.Millisecond), kind: "feed", run: func() ([]dueOp, error) {
			return nil, c.call(obs.Span{}, "GET", "/", nil, http.StatusOK, nil)
		}})
	}
	st := runSchedule(ops)
	lat := st.lat["feed"]
	if len(lat) != 8 {
		t.Fatalf("%d latencies, want 8", len(lat))
	}
	stallMS := float64(stall) / 1e6
	if lat[3] < stallMS {
		t.Errorf("stalled request took %.1f ms, want at least %.0f", lat[3], stallMS)
	}
	// Request 4 was due 10 ms after the stalled one, so it waited for
	// the rest of the stall even though the server answers it at once.
	if lat[4] < stallMS-10 {
		t.Errorf("request behind the stall: %.1f ms from due, want at least %.0f", lat[4], stallMS-10)
	}
	if lat[7] < stallMS-40 {
		t.Errorf("last request: %.1f ms from due, want at least %.0f", lat[7], stallMS-40)
	}
	if st.backlogMax < 4 {
		t.Errorf("backlog max %d, want the 4 requests due during the stall", st.backlogMax)
	}
	if late := percentile(st.lateMS, 99); late < stallMS-40 {
		t.Errorf("late p99 %.1f ms, want the generator to report running behind", late)
	}
}

// TestOpenLoopFailureMissesLimit checks that a refused request counts as
// above any latency limit.
func TestOpenLoopFailureMissesLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	st := runSchedule([]dueOp{{due: time.Now(), kind: "feed", run: func() ([]dueOp, error) {
		return nil, c.call(obs.Span{}, "GET", "/", nil, http.StatusOK, nil)
	}}})
	if got := percentile(st.lat["feed"], 50); got <= feedLimitMS || finite(got) != 1e9 {
		t.Errorf("refused request latency %v, want above the %v ms limit", got, feedLimitMS)
	}
}

// TestSeedPlumbing checks that the seed alone decides a workload's
// inputs: the same seed gives the same inputs, another seed others
// (except for the sweep, which always runs on the default seed), and
// golden digests apply only on the seed they were recorded on.
func TestSeedPlumbing(t *testing.T) {
	if top := cellsTopology(7); top.Seed != 7 || len(top.UEs) != cellsUEs || top.Duration != cellsDuration {
		t.Errorf("cells topology: seed %d, %d UEs, %v", top.Seed, len(top.UEs), top.Duration)
	}
	digests := func(seed int64) []string {
		streams, err := prepareStreams(seed)
		if err != nil {
			t.Fatal(err)
		}
		var ds []string
		for _, s := range streams {
			ds = append(ds, s.digest)
		}
		return ds
	}
	a, b, other := digests(2), digests(2), digests(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different serve inputs")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 2 and 3 gave the same serve inputs")
	}
	for _, w := range []string{"sweep", "cells"} {
		if g, ok := goldenDigests(w, defaultSeed); !ok || len(g) == 0 {
			t.Errorf("%s: no golden digests for the default seed", w)
		}
		if _, ok := goldenDigests(w, defaultSeed+1); ok {
			t.Errorf("%s: golden digests offered for a seed they were not recorded on", w)
		}
	}
	if simSeed("sweep", 7) != defaultSeed || simSeed("cells", 7) != 7 {
		t.Error("the sweep must run on the default seed, cells on the given one")
	}
	if a, b := sourceSeeds(2), sourceSeeds(3); len(a) != sourceDraws || reflect.DeepEqual(a, b) ||
		!reflect.DeepEqual(inputSeeds("serve", 2), a) || a[len(a)-1] >= b[0] {
		t.Errorf("serve source seeds %v for seed 2 and %v for seed 3 must be %d distinct draws each, disjoint", a, b, sourceDraws)
	}
	if n := len(goldenSweepIDs()); n != 23 {
		t.Errorf("golden sweep has %d artifacts, want 23", n)
	}
}

// A session keeps the correlator's default flush horizon unless its
// stream has a packet slower than that to reach the core; then the
// horizon covers the slowest packet, rounded up to a tick, plus a tick.
func TestFlushAfter(t *testing.T) {
	view := func(sent, delay time.Duration, seen bool) core.PacketView {
		return core.PacketView{SentAt: sent, CoreAt: sent + delay, SeenCore: seen}
	}
	for _, tc := range []struct {
		name  string
		views []core.PacketView
		want  time.Duration
	}{
		{"empty", nil, 0},
		{"fast", []core.PacketView{view(0, 20*time.Millisecond, true), view(time.Second, 350*time.Millisecond, true)}, 0},
		{"slow", []core.PacketView{view(0, 20*time.Millisecond, true), view(time.Second, 590*time.Millisecond, true)}, 700 * time.Millisecond},
		{"on a tick", []core.PacketView{view(time.Second, 800*time.Millisecond, true)}, 900 * time.Millisecond},
		{"lost packets ignored", []core.PacketView{view(0, 5*time.Second, false), view(0, 30*time.Millisecond, true)}, 0},
	} {
		if got := flushAfter(&core.Report{Packets: tc.views}); got != tc.want {
			t.Errorf("%s: flushAfter = %v, want %v", tc.name, got, tc.want)
		}
	}
}
