package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"athena/internal/obs"
)

// Shards coordinates several independent Simulators — one per shard of a
// partitioned deployment — under conservative time-window
// synchronization. All shards advance in lockstep windows of a fixed
// lookahead: each window every shard runs its own event loop to the
// window end (in parallel when a Gang is supplied), then all shards stop
// at a barrier, where a single-threaded callback may read every shard's
// state and adjust it for the windows ahead, and the next window begins.
// One simulator is the degenerate case: its windows run back to back.
//
// The protocol is conservative in the classical parallel-DES sense:
// during a window a shard observes only its own events and the state
// fixed at the last barrier, so no shard can see another's future and
// no rollback machinery is needed. The lookahead is therefore not a
// tuning knob but a modeling statement: it must lower-bound the latency
// of every physical cross-shard channel (the inter-gNB wired path for
// load reports).
//
// Determinism: a shard's event loop is a pure function of its own seed
// and what the barrier callback changed, and the callback runs with
// every shard quiesced. Advancing the shards serially or in parallel on
// a Gang therefore produces byte-identical simulations; the scenario
// test suite pins that equivalence.
type Shards struct {
	sims   []*Simulator
	window time.Duration

	metWindows *obs.Counter
	waitAll    *obs.Histogram
	waits      []*obs.Histogram
	finishes   []time.Time
}

// NewShards builds a coordinator over sims advancing in windows of the
// given lookahead. With more than one simulator, sim.windows counts the
// windows and histograms sim.shard<i>.barrier_wait_ns record, per shard,
// how long it idled at each barrier waiting for the slowest shard of
// that window (parallel advancement only); sim.barrier_wait_ns
// aggregates them. A lone simulator coordinates nothing and registers
// none of these, so it observes exactly like a bare Simulator.
func NewShards(sims []*Simulator, lookahead time.Duration) *Shards {
	if len(sims) == 0 {
		panic("sim: NewShards requires at least one simulator")
	}
	if lookahead <= 0 {
		panic("sim: NewShards requires a positive lookahead window")
	}
	sh := &Shards{sims: sims, window: lookahead}
	if len(sims) > 1 {
		sh.metWindows = obs.NewCounter("sim.windows")
		sh.waitAll = obs.NewHistogram("sim.barrier_wait_ns")
		sh.finishes = make([]time.Time, len(sims))
		for i := range sims {
			sh.waits = append(sh.waits, obs.NewHistogram(fmt.Sprintf("sim.shard%d.barrier_wait_ns", i)))
		}
	}
	return sh
}

// Advance runs every shard to horizon in lookahead-sized windows. When g
// is nil the shards advance serially in index order; otherwise each
// window fans out across the gang's workers. barrier, when non-nil, is
// invoked at every window boundary (with all shards stopped at exactly
// that virtual time) and may inspect and adjust shard state for the
// windows ahead. Both advancement modes execute the same per-shard
// event sequences.
func (sh *Shards) Advance(horizon time.Duration, g *Gang, barrier func(end time.Duration)) {
	for start := time.Duration(0); start < horizon; {
		end := start + sh.window
		if end > horizon {
			end = horizon
		}
		sh.metWindows.Inc()
		obsOn := sh.waits != nil && obs.Enabled()
		step := func(i int) {
			sh.sims[i].RunUntil(end)
			if obsOn {
				sh.finishes[i] = time.Now()
			}
		}
		if g == nil {
			for i := range sh.sims {
				step(i)
			}
		} else {
			g.Run(len(sh.sims), step)
			if obsOn {
				sh.observeBarrierWaits()
			}
		}
		if barrier != nil {
			barrier(end)
		}
		start = end
	}
}

// observeBarrierWaits records, for each shard, the wall-clock idle time
// between its window completion and the slowest shard's.
func (sh *Shards) observeBarrierWaits() {
	last := sh.finishes[0]
	for _, t := range sh.finishes[1:] {
		if t.After(last) {
			last = t
		}
	}
	for i, t := range sh.finishes {
		w := last.Sub(t)
		sh.waits[i].ObserveDuration(w)
		sh.waitAll.ObserveDuration(w)
	}
}

// Gang is a fixed crew of goroutines for repeated barriered fan-outs —
// the shard advancement loop dispatches every simulation window through
// one. Unlike runner.Pool.ForEach, a Gang owns its workers outright and
// draws nothing from the process-wide scenario pool's semaphore, so a
// sharded topology that is itself executing on a pool worker can fan
// its shards out without nested-submission starvation (a pool worker
// blocking on pool slots its own batch already holds).
type Gang struct {
	tasks chan gangTask
	n     int
}

type gangTask struct {
	i  int
	fn func(int)
	wg *sync.WaitGroup
}

// NewGang starts workers goroutines (GOMAXPROCS when workers <= 0).
// Close releases them.
func NewGang(workers int) *Gang {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Gang{tasks: make(chan gangTask), n: workers}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range g.tasks {
				t.fn(t.i)
				t.wg.Done()
			}
		}()
	}
	return g
}

// Workers reports the crew size.
func (g *Gang) Workers() int { return g.n }

// Run executes fn(0..n-1) across the gang and waits for all of them.
// Successive Run calls reuse the same workers, so a window loop pays no
// per-window goroutine churn.
func (g *Gang) Run(n int, fn func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		g.tasks <- gangTask{i: i, fn: fn, wg: &wg}
	}
	wg.Wait()
}

// Close releases the gang's workers. Run after Close panics.
func (g *Gang) Close() { close(g.tasks) }
