package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"athena/internal/obs"
)

// shardTrace drives n shards that each tick on their own period and
// draw from their own RNG stream. It returns the per-shard execution
// traces.
func shardTrace(t *testing.T, n int, g *Gang) []string {
	t.Helper()
	sims := make([]*Simulator, n)
	for i := range sims {
		sims[i] = New(int64(100 + i))
	}
	traces := make([]string, n)
	for i := range sims {
		i := i
		s := sims[i]
		rng := s.NewStream()
		s.Every(0, time.Duration(2+i)*time.Millisecond, func() {
			traces[i] += fmt.Sprintf("tick@%v:%d;", s.Now(), rng.Int63n(1000))
		})
	}
	NewShards(sims, 10*time.Millisecond).Advance(50*time.Millisecond, g, nil)
	return traces
}

// TestShardsSerialMatchesGang pins the core determinism claim: advancing
// the same shard set serially or across a worker gang yields identical
// per-shard event traces.
func TestShardsSerialMatchesGang(t *testing.T) {
	serial := shardTrace(t, 4, nil)
	g := NewGang(4)
	defer g.Close()
	parallel := shardTrace(t, 4, g)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("shard %d diverged between serial and gang advancement\nserial:   %s\nparallel: %s",
				i, serial[i], parallel[i])
		}
		if serial[i] == "" {
			t.Fatalf("shard %d executed nothing", i)
		}
	}
}

// TestShardsBarrierStopsAllShards: the barrier callback observes every
// shard's clock at exactly the window end.
func TestShardsBarrierStopsAllShards(t *testing.T) {
	sims := []*Simulator{New(1), New(2), New(3)}
	sh := NewShards(sims, 7*time.Millisecond)
	var ends []time.Duration
	sh.Advance(21*time.Millisecond, nil, func(end time.Duration) {
		ends = append(ends, end)
		for i, s := range sims {
			if s.Now() != end {
				t.Fatalf("at barrier %v shard %d clock is %v", end, i, s.Now())
			}
		}
	})
	want := []time.Duration{7 * time.Millisecond, 14 * time.Millisecond, 21 * time.Millisecond}
	if len(ends) != len(want) {
		t.Fatalf("saw barriers %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("saw barriers %v, want %v", ends, want)
		}
	}
}

// TestShardsBarrierWaitHistograms: with obs enabled and a gang driving
// the windows, every shard's barrier-wait histogram and the aggregate
// record one sample per window.
func TestShardsBarrierWaitHistograms(t *testing.T) {
	obs.ResetAll()
	obs.Enable()
	defer obs.Disable()
	g := NewGang(2)
	defer g.Close()
	sims := []*Simulator{New(1), New(2)}
	for i, s := range sims {
		s.Every(0, time.Millisecond, func() {})
		s.Label(fmt.Sprintf("shard%d", i))
	}
	sh := NewShards(sims, 10*time.Millisecond)
	sh.Advance(40*time.Millisecond, g, nil)
	const windows = 4
	if got := obs.NewCounter("sim.windows").Value(); got != windows {
		t.Fatalf("sim.windows = %d, want %d", got, windows)
	}
	if got := obs.NewHistogram("sim.barrier_wait_ns").Count(); got != int64(windows*len(sims)) {
		t.Fatalf("aggregate barrier histogram has %d samples, want %d", got, windows*len(sims))
	}
	for i := range sims {
		h := obs.NewHistogram(fmt.Sprintf("sim.shard%d.barrier_wait_ns", i))
		if got := h.Count(); got != windows {
			t.Fatalf("shard %d barrier histogram has %d samples, want %d", i, got, windows)
		}
	}
	// Labeled engines kept their counts apart and accounted for every
	// event: ticks at 0..40ms inclusive on a 1ms period = 41 per shard.
	for i := range sims {
		c := obs.NewCounter(fmt.Sprintf("sim.shard%d.events_fired", i))
		if got := c.Value(); got != 41 {
			t.Fatalf("shard %d fired %d events, want 41", i, got)
		}
	}
}

// TestLoneShardRecordsLikeBareEngine: one simulator under Shards has
// nothing to coordinate, so it counts no windows and fires into the
// shared sim.events_fired series like a bare engine.
func TestLoneShardRecordsLikeBareEngine(t *testing.T) {
	obs.ResetAll()
	obs.Enable()
	defer obs.Disable()
	s := New(1)
	s.Every(0, time.Millisecond, func() {})
	NewShards([]*Simulator{s}, 10*time.Millisecond).Advance(40*time.Millisecond, nil, nil)
	if got := obs.NewCounter("sim.windows").Value(); got != 0 {
		t.Fatalf("lone shard counted %d windows, want 0", got)
	}
	if got := obs.NewCounter("sim.events_fired").Value(); got != 41 {
		t.Fatalf("sim.events_fired = %d, want 41", got)
	}
}

// TestLabeledEnginesDoNotInterleaveCounts is the obs-namespacing race
// check: two engines advancing concurrently, each labeled, must record
// into disjoint series with exact per-engine totals (run under -race in
// CI).
func TestLabeledEnginesDoNotInterleaveCounts(t *testing.T) {
	obs.ResetAll()
	obs.Enable()
	defer obs.Disable()
	const perEngine = 5000
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		s := New(int64(i + 1))
		s.Label(fmt.Sprintf("race%d", i))
		var n int
		s.Every(0, time.Millisecond, func() {
			n++
			if n >= perEngine {
				s.Stop()
			}
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Run()
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		c := obs.NewCounter(fmt.Sprintf("sim.race%d.events_fired", i))
		if got := c.Value(); got != perEngine {
			t.Fatalf("engine %d recorded %d events, want exactly %d (cross-engine interleaving?)",
				i, got, perEngine)
		}
	}
}

// TestGangReuse: a gang survives many Run cycles and fn sees every index
// exactly once per cycle.
func TestGangReuse(t *testing.T) {
	g := NewGang(3)
	defer g.Close()
	for round := 0; round < 50; round++ {
		var mu sync.Mutex
		seen := make(map[int]int)
		g.Run(8, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != 8 {
			t.Fatalf("round %d: saw %d distinct indices, want 8", round, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, n)
			}
		}
	}
}
