package scenario

import (
	"strings"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/units"
)

// TestVCAWorkloadExplicitKindDigestIdentical pins the tentpole refactor
// bar: routing the VCA family through the Workload interface must be
// byte-identical to the implicit (empty-kind) path — same digests across
// seeds and schedulers, single-cell and sharded.
func TestVCAWorkloadExplicitKindDigestIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		for _, sched := range []ran.SchedulerKind{ran.SchedCombined, ran.SchedBSROnly} {
			top := NewTopology(2)
			top.Seed = seed
			top.Duration = 1500 * time.Millisecond
			for i := range top.UEs {
				top.UEs[i].Sched = sched
			}
			base := RunTopology(top).Digest()

			exp := top
			exp.UEs = append([]UESpec(nil), top.UEs...)
			for i := range exp.UEs {
				exp.UEs[i].Workload = WorkloadVCA
			}
			if got := RunTopology(exp).Digest(); got != base {
				t.Fatalf("seed=%d sched=%v: explicit vca digest %s != implicit %s", seed, sched, got, base)
			}
		}
	}
}

func TestVCAWorkloadExplicitKindDigestIdenticalSharded(t *testing.T) {
	for _, serial := range []bool{false, true} {
		top := NewMultiCellTopology(3, 2)
		top.Duration = 1500 * time.Millisecond
		top.Serial = serial
		base := RunTopology(top).Digest()

		exp := top
		exp.UEs = append([]UESpec(nil), top.UEs...)
		for i := range exp.UEs {
			exp.UEs[i].Workload = WorkloadVCA
		}
		if got := RunTopology(exp).Digest(); got != base {
			t.Fatalf("serial=%v: explicit vca digest %s != implicit %s", serial, got, base)
		}
	}
}

// mixedTopology is a single-cell topology with the four families
// assigned round-robin.
func mixedTopology(ues int, dur time.Duration) Topology {
	top := NewTopology(ues)
	top.Duration = dur
	top.MixWorkloads()
	return top
}

// TestMixedCellCorrelatesPerFamily is the acceptance-criterion cell: one
// cell carrying all four families, each UE's flows correlated end to end
// with per-app attribution and a family-appropriate QoE score.
func TestMixedCellCorrelatesPerFamily(t *testing.T) {
	res := RunTopology(mixedTopology(4, 3*time.Second))
	byKind := map[WorkloadKind]*UEResult{}
	for _, u := range res.UEs {
		byKind[u.Workload] = u
	}
	if len(byKind) != 4 {
		t.Fatalf("expected 4 distinct families, got %d", len(byKind))
	}
	for _, u := range res.UEs {
		if len(u.Report.Packets) == 0 {
			t.Fatalf("UE %d (%s): empty correlated report", u.ID, u.Workload)
		}
		if len(u.Score.Scalars) == 0 {
			t.Fatalf("UE %d (%s): empty QoE score", u.ID, u.Workload)
		}
		if u.Score.Kind != u.Workload {
			t.Fatalf("UE %d: score kind %s != workload %s", u.ID, u.Score.Kind, u.Workload)
		}
		att := u.Report.Attribute()
		if att.Packets == 0 {
			t.Fatalf("UE %d (%s): no attributed packets", u.ID, u.Workload)
		}
	}

	vca := byKind[WorkloadVCA]
	if vca.Receiver == nil || vca.Sender == nil {
		t.Fatal("VCA UE missing its media endpoints")
	}
	if sum := vca.Report.DelaySummary(packet.KindVideo); sum.Count == 0 {
		t.Fatal("VCA UE: no correlated video packets")
	}

	g := byKind[WorkloadCloudGaming]
	if g.Receiver != nil {
		t.Fatal("gaming UE must not build a VCA receiver")
	}
	if sum := g.Report.DelaySummary(packet.KindData); sum.Count == 0 {
		t.Fatal("gaming UE: no correlated input events")
	}
	if fps := g.Score.Scalars["delivered_fps"]; fps < 30 {
		t.Fatalf("gaming delivered fps = %v, expected a near-60 stream", fps)
	}
	if p50 := g.Score.Scalars["input_p50_ms"]; p50 <= 0 {
		t.Fatalf("gaming input p50 = %v", p50)
	}

	bk := byKind[WorkloadBulkTransfer]
	if sum := bk.Report.DelaySummary(packet.KindData); sum.Count == 0 {
		t.Fatal("bulk UE: no correlated data packets")
	}
	if mbps := bk.Score.Scalars["goodput_mbps"]; mbps < 0.5 {
		t.Fatalf("bulk goodput = %v Mbps, saturating upload should deliver", mbps)
	}

	au := byKind[WorkloadAudioOnly]
	if sum := au.Report.DelaySummary(packet.KindAudio); sum.Count == 0 {
		t.Fatal("audio UE: no correlated audio packets")
	}
	if played := au.Score.Scalars["played"]; played == 0 {
		t.Fatal("audio UE: playout line never played a sample")
	}
}

func TestMixedCellDeterministic(t *testing.T) {
	top := mixedTopology(4, 2*time.Second)
	d1 := RunTopology(top).Digest()
	d2 := RunTopology(top).Digest()
	if d1 != d2 {
		t.Fatalf("mixed-cell run not deterministic: %s vs %s", d1, d2)
	}
}

// TestMixedShardedMatchesSerial extends the sharded-equivalence bar to
// mixed-family topologies: serial and parallel shard advancement must
// agree on the full digest and on every per-family digest, with the 8
// UEs static over two cells and with the first two handed over at
// half-time to the paired cell.
func TestMixedShardedMatchesSerial(t *testing.T) {
	for _, handovers := range []int{0, 2} {
		top := pairedHandoverTopology(8, 2, handovers, 2*time.Second)
		top.MixWorkloads()

		ser := top
		ser.Serial = true
		rs := RunTopology(ser)
		par := top
		par.Serial = false
		rp := RunTopology(par)

		if ds, dp := rs.Digest(), rp.Digest(); ds != dp {
			t.Fatalf("%d handovers: mixed sharded digest mismatch: serial %s vs parallel %s", handovers, ds, dp)
		}
		fs, fp := rs.FamilyDigests(), rp.FamilyDigests()
		if len(fs) != 4 || len(fp) != 4 {
			t.Fatalf("%d handovers: family digests incomplete: %d serial, %d parallel", handovers, len(fs), len(fp))
		}
		for k, v := range fs {
			if fp[k] != v {
				t.Fatalf("%d handovers: family %s digest mismatch: serial %s vs parallel %s", handovers, k, v, fp[k])
			}
		}
	}
}

// TestMixedHandoverDelivers hands a gaming UE between cells mid-run: the
// session must keep correlating (input events span both cells' TBs) and
// stay deterministic.
func TestMixedHandoverDelivers(t *testing.T) {
	top := NewMultiCellTopology(4, 2)
	top.Duration = 3 * time.Second
	top.MixWorkloads()
	// UE 1 is cloud-gaming (canonical order) homed on cell 1; send it to
	// cell 0 mid-run.
	top.UEs[1].Handovers = []Handover{{At: 1500 * time.Millisecond, ToCell: 0}}

	res := RunTopology(top)
	g := res.UEs[1]
	if g.Workload != WorkloadCloudGaming {
		t.Fatalf("UE 1 workload = %s, mix order changed", g.Workload)
	}
	if sum := g.Report.DelaySummary(packet.KindData); sum.Count == 0 {
		t.Fatal("gaming UE: no input events correlated across the handover")
	}
	if fps := g.Score.Scalars["delivered_fps"]; fps < 20 {
		t.Fatalf("gaming delivered fps = %v after handover", fps)
	}
	if d2 := RunTopology(top).Digest(); d2 != res.Digest() {
		t.Fatal("mixed handover run not deterministic")
	}
}

// TestMixedSessionStreamsMatchOffline extends the session-layer bar: a
// mixed cell's tapped streams must replay to the same attribution as the
// offline correlator, regardless of family.
func TestMixedSessionStreamsMatchOffline(t *testing.T) {
	res := RunTopology(mixedTopology(4, 2*time.Second))
	assertStreamsMatchOffline(t, res, 100*time.Millisecond)
}

func TestWorkloadScoreStringCanonical(t *testing.T) {
	ws := WorkloadScore{Kind: WorkloadBulkTransfer, Scalars: map[string]float64{
		"zeta": 1.25, "alpha": 3, "mid": 0.001,
	}}
	s := ws.String()
	if s != "bulk-transfer{alpha=3 mid=0.001 zeta=1.25}" {
		t.Fatalf("non-canonical score rendering: %s", s)
	}
	if !strings.HasPrefix(s, string(WorkloadBulkTransfer)) {
		t.Fatalf("score missing kind prefix: %s", s)
	}
}

func TestUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload kind must panic at build time")
		}
	}()
	top := NewTopology(1)
	top.Duration = 100 * time.Millisecond
	top.UEs[0].Workload = "teleportation"
	RunTopology(top)
}

func TestTwoPartyOnNonVCAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TwoParty on a non-VCA workload must panic")
		}
	}()
	top := NewTopology(1)
	top.Duration = 100 * time.Millisecond
	top.UEs[0].Workload = WorkloadBulkTransfer
	top.UEs[0].TwoParty = true
	RunTopology(top)
}

// TestNonVCARequiresRANPath pins the guard: the non-VCA families need
// the shared cell's downlink.
func TestNonVCARequiresRANPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("audio-only on Wi-Fi access must panic")
		}
	}()
	top := NewTopology(1)
	top.Duration = 100 * time.Millisecond
	top.Access = AccessWiFi
	top.UEs[0].Workload = WorkloadAudioOnly
	RunTopology(top)
}

// TestQoEAwareSchedulerPrioritizesLatency runs the mixed cell under the
// app-hint scheduler against the default arbitration on a loaded cell:
// the latency-hinted gaming input stream must not get worse, and the
// throughput-hinted bulk flow is the one that pays.
func TestQoEAwareSchedulerMixedCell(t *testing.T) {
	run := func(sched ran.SchedulerKind) *TopologyResult {
		top := mixedTopology(4, 3*time.Second)
		for i := range top.UEs {
			top.UEs[i].Sched = sched
		}
		// Load the cell so arbitration order matters, but leave residual
		// capacity — strict tier priority starves the throughput class when
		// higher tiers (including HintNone cross UEs) saturate the cell.
		top.CrossUEs = 2
		top.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 4 * units.Mbps}}
		return RunTopology(top)
	}
	base := run(ran.SchedCombined)
	qoe := run(ran.SchedQoEAware)

	gBase := base.UEs[1].Score.Scalars["input_p95_ms"]
	gQoE := qoe.UEs[1].Score.Scalars["input_p95_ms"]
	if gQoE > gBase*1.5 {
		t.Fatalf("qoe-aware worsened gaming input p95: %v -> %v ms", gBase, gQoE)
	}
	// Bulk still makes progress (starved entirely would be a scheduler bug).
	if mbps := qoe.UEs[2].Score.Scalars["goodput_mbps"]; mbps <= 0 {
		t.Fatalf("qoe-aware starved bulk entirely: %v Mbps", mbps)
	}
}
