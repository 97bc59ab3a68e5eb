package scenario

// Topology behaviour is pinned absolutely by committed golden digests
// (testdata/golden_digests.json). The single-UE entries hash compatDigest
// of Run for figure-shaped configs that exercise every stage (Fig 3: 5G
// + cross traffic + two-party; Fig 7: 5G and its emulated twin; the
// alternate access networks, masked GCC with ECN and delay injection,
// NTP-estimated offsets). They were recorded while a verbatim copy of
// the pre-topology monolithic Run still checked the same compatDigest
// content byte for byte, so matching them is matching the monolith.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/units"
)

// compatDigest renders the determinism-relevant content of a Result as
// bytes — the same rendering the runner's determinism test uses —
// covering per-packet corrected timings, delay summaries, receiver
// output and probe OWDs.
func compatDigest(res *Result) string {
	if res == nil {
		return "<nil>"
	}
	var b strings.Builder
	rep := res.Report
	fmt.Fprintf(&b, "packets=%d frames=%d\n", len(rep.Packets), len(rep.Frames))
	fmt.Fprintf(&b, "video=%s\naudio=%s\n",
		rep.DelaySummary(packet.KindVideo), rep.DelaySummary(packet.KindAudio))
	for _, v := range rep.Packets {
		fmt.Fprintf(&b, "%d/%d/%s sent=%d core=%d recv=%d ul=%d tbs=%v\n",
			v.Flow, v.Seq, v.Kind, v.SentAt, v.CoreAt, v.ReceiverAt, v.ULDelay, v.TBIDs)
	}
	sender, core := rep.SpreadsMS()
	fmt.Fprintf(&b, "spreads=%d/%d\n", len(sender), len(core))
	fmt.Fprintf(&b, "rates=%v\n", res.Receiver.ReceiveRates())
	fmt.Fprintf(&b, "probe=%v\n", res.Prober.OWDsMS())
	fmt.Fprintf(&b, "scalars=%v %v\n", res.Receiver.FrameJitter, res.Receiver.Renderer.Stalls)
	if res.DLReceiver != nil {
		fmt.Fprintf(&b, "dlrates=%v\n", res.DLReceiver.ReceiveRates())
		fmt.Fprintf(&b, "dlowd=%v\n", res.DLReceiver.VideoOWDMS)
	}
	return b.String()
}

// fig3ShapedConfig is the Fig 3 workload (5G, two-party call, six
// competing cross UEs stepping through load phases), shortened so the
// golden comparison stays fast.
func fig3ShapedConfig() Config {
	cfg := Defaults()
	cfg.Duration = 6 * time.Second
	cfg.TwoParty = true
	cfg.CrossUEs = 6
	cfg.CrossPhases = []ran.CrossPhase{
		{Start: 0, Rate: 0},
		{Start: cfg.Duration / 4, Rate: 14 * units.Mbps},
		{Start: cfg.Duration / 2, Rate: 16 * units.Mbps},
		{Start: 3 * cfg.Duration / 4, Rate: 18 * units.Mbps},
	}
	return cfg
}

// update rewrites testdata/golden_digests.json from the current code.
// Use it only for an intended behaviour change, and say why in the
// change log.
var update = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current code")

const goldenPath = "testdata/golden_digests.json"

// goldenCases pins topology behaviour absolutely: each entry names a run
// and renders it as a SHA-256 hex digest. Single-UE configs hash
// compatDigest of Run; sharded topologies use TopologyResult.Digest.
var goldenCases = map[string]func() string{
	"fig3":              func() string { return compatSHA(fig3ShapedConfig()) },
	"fig7-5g":           func() string { return compatSHA(fig7Config()) },
	"fig7-emulated":     func() string { return compatSHA(fig7EmulatedConfig()) },
	"wifi":              func() string { return compatSHA(variantConfig(func(c *Config) { c.Access = AccessWiFi })) },
	"wired":             func() string { return compatSHA(variantConfig(func(c *Config) { c.Access = AccessWired })) },
	"leo":               func() string { return compatSHA(variantConfig(func(c *Config) { c.Access = AccessLEO })) },
	"masked-ecn-inject": func() string { return compatSHA(maskedECNConfig()) },
	"ntp-estimated":     func() string { return compatSHA(ntpConfig()) },
	"sharded-seed1":     func() string { return RunTopology(shortShardedTopology(1)).Digest() },
	"sharded-seed7":     func() string { return RunTopology(shortShardedTopology(7)).Digest() },
}

func compatSHA(cfg Config) string {
	sum := sha256.Sum256([]byte(compatDigest(Run(cfg))))
	return hex.EncodeToString(sum[:])
}

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return want
}

// checkGolden runs the named cases and diffs them against the committed
// digests. Under -update it defers to TestGoldenDigestsFile.
func checkGolden(t *testing.T, names ...string) {
	t.Helper()
	if *update {
		t.Skip("-update: digests are rewritten by TestGoldenDigestsFile")
	}
	want := loadGolden(t)
	for _, name := range names {
		if got := goldenCases[name](); got != want[name] {
			t.Errorf("%s: digest %s, golden %s (rerun with -update only for an intended behaviour change)",
				name, got, want[name])
		}
	}
}

// TestGoldenDigestsFile keeps the manifest in step with goldenCases: it
// must list exactly the cases, and -update regenerates it.
func TestGoldenDigestsFile(t *testing.T) {
	if *update {
		got := make(map[string]string, len(goldenCases))
		for name, digest := range goldenCases {
			got[name] = digest()
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadGolden(t)
	for name := range goldenCases {
		if _, ok := want[name]; !ok {
			t.Errorf("%s has no entry for case %q", goldenPath, name)
		}
	}
	for name := range want {
		if _, ok := goldenCases[name]; !ok {
			t.Errorf("%s has stale entry %q", goldenPath, name)
		}
	}
}

// TestShardedGoldenDigests pins the multi-cell engine: three cells, a
// handover and interference coupling, at two seeds.
func TestShardedGoldenDigests(t *testing.T) {
	checkGolden(t, "sharded-seed1", "sharded-seed7")
}

func fig7Config() Config {
	cfg := Defaults()
	cfg.Duration = 6 * time.Second
	return cfg
}

func fig7EmulatedConfig() Config {
	cfg := fig7Config()
	cfg.Emulated = true
	cfg.EmulatedSchedule = []units.ByteCount{cfg.RAN.SlotCapacity()}
	return cfg
}

// variantConfig is a 3 s Defaults() run with one knob changed.
func variantConfig(set func(*Config)) Config {
	cfg := Defaults()
	cfg.Duration = 3 * time.Second
	set(&cfg)
	return cfg
}

func maskedECNConfig() Config {
	return variantConfig(func(c *Config) {
		c.Controller = CtlMaskedGCC
		c.ECN = true
		c.Spikes = []Spike{{Start: time.Second, End: 2 * time.Second, Extra: 40 * time.Millisecond}}
		c.Jitters = []JitterEpisode{{Start: 2 * time.Second, End: 3 * time.Second, Amp: 10 * time.Millisecond}}
	})
}

func ntpConfig() Config {
	return variantConfig(func(c *Config) {
		c.EstimateOffsets = true
		c.SenderClockOffset = 2 * time.Millisecond
		c.ReceiverClockOffset = -1 * time.Millisecond
	})
}

// TestTopologyMatchesLegacyFig3 pins the 1-UE topology path to the
// monolith's output for the Fig 3 workload.
func TestTopologyMatchesLegacyFig3(t *testing.T) {
	checkGolden(t, "fig3")
}

// TestTopologyMatchesLegacyFig7 covers the Fig 7 pair: the physical 5G
// baseline and its fixed-latency emulated twin driven by a TB schedule.
func TestTopologyMatchesLegacyFig7(t *testing.T) {
	checkGolden(t, "fig7-5g", "fig7-emulated")
}

// TestTopologyMatchesLegacyVariants sweeps the remaining stage branches
// the figure configs miss: alternate access networks, masked-GCC + ECN,
// delay/jitter injection, and NTP-estimated offsets.
func TestTopologyMatchesLegacyVariants(t *testing.T) {
	checkGolden(t, "wifi", "wired", "leo", "masked-ecn-inject", "ntp-estimated")
}
