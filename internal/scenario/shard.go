package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/probe"
	"athena/internal/ran"
	"athena/internal/sim"
	"athena/internal/units"
)

// Multi-cell scenario metrics.
var (
	metHandovers   = obs.NewCounter("scenario.handovers")
	metShardCount  = obs.NewGauge("scenario.shards")
	metShardedRuns = obs.NewCounter("scenario.sharded_runs")
)

// CellSpec describes one cell of a multi-cell Topology.
type CellSpec struct {
	// RAN overrides the topology-wide cell config for this cell. Nil
	// inherits Topology.RAN. Either way the effective config's CellID is
	// forced to the cell's index and InterferenceCoupling defaults to
	// Topology.InterferenceCoupling.
	RAN *ran.Config

	// CrossUEs / CrossPhases attach synthetic cross-traffic load to this
	// cell (flow IDs are blocked per cell so captures stay disjoint).
	CrossUEs    int
	CrossPhases []ran.CrossPhase
}

// Handover scripts one cell change for a UE: at virtual time At the UE
// detaches from its current cell (grant gap + HARQ reset), and
// Topology.HandoverGap later attaches to cell ToCell with its buffer
// intact.
type Handover struct {
	At     time.Duration
	ToCell int
}

// ShardResult is one shard's slice of a sharded topology run: the cells
// it simulated, its engine, and its private wired path and captures.
type ShardResult struct {
	Cells  []int // global cell indices, ascending
	Sim    *sim.Simulator
	RANs   []*ran.RAN // parallel to Cells
	Prober *probe.Prober

	CapCore, CapSFU *packet.Capture

	// UEs are this shard's UE results, in global index order.
	UEs []*UEResult
}

// NewMultiCellTopology returns a topology of ues default VCA UEs spread
// round-robin across cells default cells.
func NewMultiCellTopology(ues, cells int) Topology {
	top := NewTopology(ues)
	top.Cells = make([]CellSpec, cells)
	for i := range top.UEs {
		top.UEs[i].Cell = i % cells
	}
	return top
}

// shardPlan is one handover domain: the cells that must share a
// simulation engine (because some UE can hand over between them) and the
// UEs homed on those cells. Cell and UE indices are global and ascending.
type shardPlan struct {
	cells []int
	ues   []int
}

// planShards partitions the topology's cells into handover domains with
// a union-find over the handover scripts: a UE's endpoint pipeline is
// bound to one engine, so every cell it can visit must live on that
// engine. UEs that never hand over leave their cells disconnected, and a
// fully static N-cell topology yields N independent shards. Shards are
// ordered by their smallest cell index, so shard 0 always contains cell
// 0 — the plan is a pure function of the Topology value. A cell-less
// topology (non-5G access) is one shard holding every UE.
func planShards(top Topology) []shardPlan {
	n := len(top.Cells)
	if n == 0 {
		plan := shardPlan{}
		for ui := range top.UEs {
			plan.ues = append(plan.ues, ui)
		}
		return []shardPlan{plan}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // smaller root wins: stable shard ordering
		}
	}
	for _, u := range top.UEs {
		for _, h := range u.Handovers {
			union(u.Cell, h.ToCell)
		}
	}
	shardOfRoot := make(map[int]int)
	var plans []shardPlan
	for ci := 0; ci < n; ci++ {
		root := find(ci)
		si, ok := shardOfRoot[root]
		if !ok {
			si = len(plans)
			shardOfRoot[root] = si
			plans = append(plans, shardPlan{})
		}
		plans[si].cells = append(plans[si].cells, ci)
	}
	for ui, u := range top.UEs {
		si := shardOfRoot[find(u.Cell)]
		plans[si].ues = append(plans[si].ues, ui)
	}
	return plans
}

// shardSeed derives shard si's engine seed from the master seed. Shard 0
// keeps the master seed itself, so a single-shard run is seeded exactly
// like the historical single-engine testbed.
func shardSeed(seed int64, si int) int64 {
	return seed + int64(si)*1_000_003
}

// validateCells panics on cells outside Access5G and on out-of-range
// cell references — misrouted UEs would otherwise surface as nil-map
// lookups deep in the build. A Cells-empty topology has one implicit
// cell 0.
func validateCells(top Topology) {
	if len(top.Cells) > 0 && !top.cellular() {
		panic("scenario: Topology.Cells requires the Access5G path")
	}
	n := max(len(top.Cells), 1)
	for i, u := range top.UEs {
		if u.Cell < 0 || u.Cell >= n {
			panic(fmt.Sprintf("scenario: UE %d homed on cell %d of %d", i, u.Cell, n))
		}
		for _, h := range u.Handovers {
			if h.ToCell < 0 || h.ToCell >= n {
				panic(fmt.Sprintf("scenario: UE %d hands over to cell %d of %d", i, h.ToCell, n))
			}
		}
	}
}

// cellular reports whether the topology's access network is the 5G RAN.
func (top Topology) cellular() bool {
	return !top.Emulated && (top.Access == "" || top.Access == Access5G)
}

// interferenceBarrier returns the per-window exchange applied with every
// shard quiesced at the barrier: each cell's uplink utilization over the
// closing window (granted bytes / capacity) is summed for every *other*
// cell and reported via SetExternalLoad, where InterferenceCoupling
// turns it into a capacity reduction for the windows ahead. Cells are
// walked in global order on the single barrier goroutine, so the
// exchange is deterministic and identical under serial and parallel
// advancement. Returns nil — no barrier work at all — when no cell
// couples, which keeps the uncoupled sharded path's event stream
// untouched.
func interferenceBarrier(builds []*build) func(time.Duration) {
	var cells []*ran.RAN
	for _, b := range builds {
		cells = append(cells, b.res.RANs...)
	}
	coupled := false
	for _, c := range cells {
		if c.Cfg.InterferenceCoupling > 0 {
			coupled = true
			break
		}
	}
	if !coupled {
		return nil
	}
	lastGranted := make([]units.ByteCount, len(cells))
	utils := make([]float64, len(cells))
	prevEnd := time.Duration(0)
	return func(end time.Duration) {
		window := end - prevEnd
		prevEnd = end
		if window <= 0 {
			return
		}
		var total float64
		for i, c := range cells {
			g := c.GrantedBytes()
			delta := g - lastGranted[i]
			lastGranted[i] = g
			cap := units.BytesOver(c.Cfg.CellULRate, window)
			utils[i] = 0
			if cap > 0 {
				utils[i] = float64(delta) / float64(cap)
			}
			total += utils[i]
		}
		for i, c := range cells {
			c.SetExternalLoad(total - utils[i])
		}
	}
}

// scheduleHandovers installs each UE's scripted cell changes. The
// detach is immediate (grant gap begins, downlink reroutes to the
// target cell); the uplink attachment to the target completes
// HandoverGap later with the UE's buffer — including bytes reclaimed by
// the HARQ reset — intact.
func (b *build) scheduleHandovers() {
	for _, ub := range b.ues {
		ub := ub
		for _, h := range ub.spec.Handovers {
			h := h
			b.s.At(h.At, func() {
				if h.ToCell == ub.curCell {
					return
				}
				src := b.cellByGlobal[ub.curCell]
				dst := b.cellByGlobal[h.ToCell]
				src.Detach(ub.ranUE)
				ub.curCell = h.ToCell
				ub.servingCell = dst
				metHandovers.Inc()
				b.s.After(b.top.HandoverGap, func() { dst.AttachExisting(ub.ranUE) })
			})
		}
	}
}

// assemble merges per-shard builds into the global result. UE results
// land at their global index; the legacy top-level pointers alias shard
// 0, which by construction holds cell 0.
func assemble(top Topology, builds []*build) *TopologyResult {
	res := &TopologyResult{
		Top: top,
		UEs: make([]*UEResult, len(top.UEs)),
	}
	for _, b := range builds {
		res.Shards = append(res.Shards, b.res)
		for _, ub := range b.ues {
			res.UEs[ub.idx] = ub.res
		}
	}
	first := res.Shards[0]
	res.Sim = first.Sim
	res.Prober = first.Prober
	res.CapCore = first.CapCore
	res.CapSFU = first.CapSFU
	if len(first.RANs) > 0 {
		res.RAN = first.RANs[0]
	}
	return res
}

// Digest hashes every determinism-relevant output of the run: per-shard
// probe one-way delays and, per UE, the correlated packet stream with
// its delay attribution plus the receiver-side QoE aggregates. Two runs
// of the same Topology — serial or sharded, any worker count — must
// produce equal digests; nothing wall-clock- or scheduling-dependent is
// hashed.
func (tr *TopologyResult) Digest() string {
	h := sha256.New()
	for si, sr := range tr.Shards {
		fmt.Fprintf(h, "shard=%d probe=%v\n", si, sr.Prober.OWDsMS())
	}
	for _, u := range tr.UEs {
		writeUEDigest(h, u)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeUEDigest renders one UE's correlated output (the multiDigest
// format of the topology tests, hashed instead of accumulated). VCA UEs
// keep the historical receiver-aggregate trailer byte for byte; the
// other workload families render their canonical QoE score instead.
func writeUEDigest(w io.Writer, u *UEResult) {
	fmt.Fprintf(w, "ue=%d flows=%v packets=%d\n", u.ID, u.Flows.All(), len(u.Report.Packets))
	for _, v := range u.Report.Packets {
		fmt.Fprintf(w, "%d/%d/%s sent=%d core=%d recv=%d ul=%d tbs=%v\n",
			v.Flow, v.Seq, v.Kind, v.SentAt, v.CoreAt, v.ReceiverAt, v.ULDelay, v.TBIDs)
	}
	if u.Receiver != nil {
		fmt.Fprintf(w, "rates=%v jitter=%v stalls=%d\n",
			u.Receiver.ReceiveRates(), u.Receiver.FrameJitter, u.Receiver.Renderer.Stalls)
		return
	}
	fmt.Fprintf(w, "workload=%s score=%s\n", u.Workload, u.Score)
}
