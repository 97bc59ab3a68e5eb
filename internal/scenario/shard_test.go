package scenario

import (
	"fmt"
	"testing"
	"time"

	"athena/internal/ran"
	"athena/internal/units"
)

// shortShardedTopology builds a 6-UE / 3-cell topology with inter-cell
// interference coupling and one UE that hands over between cells 2 and
// 1 mid-run. The handover unites cells 1 and 2 into one domain while
// cell 0 stays independent, so the plan has two shards — parallel
// advancement is genuinely exercised alongside the handover and the
// coupling exchange.
func shortShardedTopology(seed int64) Topology {
	top := NewMultiCellTopology(6, 3)
	top.Seed = seed
	top.Duration = 3 * time.Second
	top.InterferenceCoupling = 0.3
	top.UEs[5].Handovers = []Handover{{At: 1200 * time.Millisecond, ToCell: 1}}
	return top
}

// pairedHandoverTopology spreads ues round-robin over cells and hands
// the first handovers UEs over at half-time to their paired cell
// (c ↔ c^1). Pairing keeps the handover domains small: cells merge at
// most two at a time, so the run stays sharded instead of collapsing
// into one engine.
func pairedHandoverTopology(ues, cells, handovers int, dur time.Duration) Topology {
	top := NewMultiCellTopology(ues, cells)
	top.Duration = dur
	for i := 0; i < handovers; i++ {
		top.UEs[i].Handovers = []Handover{{At: dur / 2, ToCell: top.UEs[i].Cell ^ 1}}
	}
	return top
}

// TestShardedDigestsMatchSerial is the golden determinism claim of the
// sharded engine: serial and parallel shard advancement must produce
// byte-identical digests, across seeds, with interference coupling and
// a handover in play, and at 100 UEs over four cells with four paired
// handovers.
func TestShardedDigestsMatchSerial(t *testing.T) {
	type tcase struct {
		name string
		top  Topology
	}
	var cases []tcase
	for _, seed := range []int64{1, 7, 1234} {
		cases = append(cases, tcase{fmt.Sprintf("6ue-3cell-seed%d", seed), shortShardedTopology(seed)})
	}
	cases = append(cases, tcase{"100ue-4cell", pairedHandoverTopology(100, 4, 4, 2*time.Second)})
	for _, c := range cases {
		serialTop := c.top
		serialTop.Serial = true
		serial := RunTopology(serialTop).Digest()

		parTop := c.top
		parTop.Serial = false
		parRes := RunTopology(parTop)
		if len(parRes.Shards) < 2 {
			t.Fatalf("%s: ran %d shards, want a sharded run", c.name, len(parRes.Shards))
		}
		if parallel := parRes.Digest(); serial != parallel {
			t.Fatalf("%s: serial digest %s != parallel digest %s", c.name, serial, parallel)
		}
	}
}

// TestImplicitCellMatchesExplicitCell pins the one-shard plan of a
// Cells-empty topology: under Access5G the top-level RAN, CrossUEs and
// CrossPhases form one implicit cell that digests exactly like the same
// cell spelled out in Cells; other access kinds run one cell-less
// shard; and Cells on a non-5G access still panics.
func TestImplicitCellMatchesExplicitCell(t *testing.T) {
	phases := []ran.CrossPhase{{Start: 0, Rate: 0}, {Start: time.Second, Rate: 14 * units.Mbps}}
	implicit := shortMultiTopology(3)
	implicit.CrossUEs = 4
	implicit.CrossPhases = phases
	explicit := shortMultiTopology(3)
	explicit.Cells = []CellSpec{{CrossUEs: 4, CrossPhases: phases}}

	tr := RunTopology(implicit)
	if len(tr.Shards) != 1 || len(tr.Shards[0].RANs) != 1 {
		t.Fatalf("Cells-empty 5G topology ran %d shards", len(tr.Shards))
	}
	if len(tr.Top.Cells) != 0 {
		t.Fatalf("result topology gained cells %v", tr.Top.Cells)
	}
	if got, want := tr.Digest(), RunTopology(explicit).Digest(); got != want {
		t.Fatalf("implicit-cell digest %s != explicit-cell digest %s", got, want)
	}

	wifiTop := shortMultiTopology(2)
	wifiTop.Access = AccessWiFi
	wtr := RunTopology(wifiTop)
	if len(wtr.Shards) != 1 || len(wtr.Shards[0].RANs) != 0 || wtr.RAN != nil {
		t.Fatalf("Wi-Fi topology ran %d shards, RANs %v", len(wtr.Shards), wtr.Shards[0].RANs)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Cells on Wi-Fi access did not panic")
		}
	}()
	wifiTop.Cells = []CellSpec{{}}
	RunTopology(wifiTop)
}

// TestShardedTopologyCorrelates checks the end-to-end semantics of a
// static multi-cell run: every UE correlates packets over only its own
// flows, every UE delivers media, cells map to shards one-to-one when
// nothing hands over, and per-cell telemetry stays disjoint (TBID
// namespaces included).
func TestShardedTopologyCorrelates(t *testing.T) {
	top := NewMultiCellTopology(4, 2)
	top.Duration = 3 * time.Second
	tr := RunTopology(top)

	if len(tr.Shards) != 2 {
		t.Fatalf("static 2-cell topology produced %d shards, want 2", len(tr.Shards))
	}
	if len(tr.UEs) != 4 {
		t.Fatalf("got %d UE results, want 4", len(tr.UEs))
	}
	for i, u := range tr.UEs {
		if u == nil {
			t.Fatalf("UE %d missing from assembled result", i)
		}
		own := make(map[uint32]bool)
		for _, f := range u.Flows.All() {
			own[f] = true
		}
		if len(u.Report.Packets) == 0 {
			t.Fatalf("UE %d correlated zero packets", i)
		}
		delivered := 0
		for _, v := range u.Report.Packets {
			if !own[v.Flow] {
				t.Fatalf("UE %d report contains foreign flow %d", i, v.Flow)
			}
			if v.SeenCore && v.SeenRecv {
				delivered++
			}
			for _, id := range v.TBIDs {
				if cell := uint32(id >> 48); int(cell) != i%2 {
					t.Fatalf("UE %d (home cell %d) carried by TB %#x of cell %d", i, i%2, id, cell)
				}
			}
		}
		if delivered == 0 {
			t.Fatalf("UE %d delivered zero packets end to end", i)
		}
	}
	// Shard structure: shard 0 owns cell 0, shard 1 owns cell 1, and the
	// legacy aliases point at shard 0.
	for si, sr := range tr.Shards {
		if len(sr.Cells) != 1 || sr.Cells[0] != si {
			t.Fatalf("shard %d owns cells %v, want [%d]", si, sr.Cells, si)
		}
		if len(sr.RANs) != 1 || sr.RANs[0] == nil {
			t.Fatalf("shard %d has RANs %v", si, sr.RANs)
		}
		if sr.Prober == nil || len(sr.Prober.Results) == 0 {
			t.Fatalf("shard %d prober collected nothing", si)
		}
	}
	if tr.Sim != tr.Shards[0].Sim || tr.RAN != tr.Shards[0].RANs[0] {
		t.Fatal("legacy result aliases do not point at shard 0")
	}
}

// TestShardedHandoverDelivers checks a handover UE keeps its session: it
// delivers media both before and after the scripted cell change, and its
// packet stream carries TBs from both cells.
func TestShardedHandoverDelivers(t *testing.T) {
	top := shortShardedTopology(5)
	top.Serial = true
	tr := RunTopology(top)

	u := tr.UEs[5] // home cell 2, hands over to cell 1
	ho := top.UEs[5].Handovers[0].At
	var before, after int
	cellsSeen := map[uint32]bool{}
	for _, v := range u.Report.Packets {
		if !v.SeenCore || !v.SeenRecv {
			continue
		}
		if v.SentAt < ho {
			before++
		} else {
			after++
		}
		for _, id := range v.TBIDs {
			cellsSeen[uint32(id>>48)] = true
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("handover UE delivered before=%d after=%d packets", before, after)
	}
	if !cellsSeen[2] || !cellsSeen[1] {
		t.Fatalf("handover UE's TBs span cells %v, want both 2 and 1", cellsSeen)
	}
	// The handover united cells 1 and 2 into one shard; cell 0 is alone.
	if len(tr.Shards) != 2 {
		t.Fatalf("handover topology produced %d shards, want 2", len(tr.Shards))
	}
	if got := tr.Shards[1].Cells; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("united shard owns cells %v, want [1 2]", got)
	}
}

// TestInterferenceCouplingHasEffect guards the coupling term against
// silently becoming a no-op: the same deployment with and without
// coupling must diverge (neighbor load shrinks capacity), while
// coupling zero must keep the barrier entirely out of the event stream.
func TestInterferenceCouplingHasEffect(t *testing.T) {
	with := shortShardedTopology(3)
	without := shortShardedTopology(3)
	without.InterferenceCoupling = 0
	if RunTopology(with).Digest() == RunTopology(without).Digest() {
		t.Fatal("interference coupling changed nothing — the capacity term is dead")
	}
}

// TestShardedDeterministicAcrossRuns: two identical parallel runs agree
// — the gang's wall-clock scheduling must leak nothing into the digest.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	a := RunTopology(shortShardedTopology(42)).Digest()
	b := RunTopology(shortShardedTopology(42)).Digest()
	if a != b {
		t.Fatalf("two parallel sharded runs diverged: %s vs %s", a, b)
	}
}
