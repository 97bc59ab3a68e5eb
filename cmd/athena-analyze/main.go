// Command athena-analyze runs the Athena correlator and prints the
// cross-layer analysis: per-kind one-way delay summaries, frame delay
// spreads, and the root-cause attribution table (UE queueing, BSR
// scheduling wait, HARQ retransmission, WAN, SFU processing).
//
// With -in it summarizes a previously dumped JSONL trace
// (see athena-trace); without it, it runs a live scenario and analyzes it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"athena"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/stats"
	"athena/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("athena-analyze: ")

	in := flag.String("in", "", "JSONL trace to summarize (default: run a live scenario)")
	duration := flag.Duration("duration", 30*time.Second, "simulated call duration (live mode)")
	seed := flag.Int64("seed", 1, "simulation seed (live mode)")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run (parallel) and aggregate")
	cli := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	stop, err := cli.Start()
	if err != nil {
		log.Fatal(err)
	}
	// Every exit after Start goes through stop once, so a failed run
	// still leaves complete profiles and metrics.
	var runErr error
	switch {
	case *in != "":
		runErr = summarizeFile(*in)
	case *seeds > 1:
		analyzeSeeds(*duration, *seed, *seeds)
	default:
		analyzeLive(*duration, *seed)
	}
	if err := errors.Join(runErr, stop()); err != nil {
		log.Fatal(err)
	}
}

// analyzeLive runs the default scenario once and prints its cross-layer
// analysis.
func analyzeLive(duration time.Duration, seed int64) {
	cfg := athena.DefaultConfig()
	cfg.Duration = duration
	cfg.Seed = seed
	res := athena.Run(cfg)
	rep := res.Report

	fmt.Println("== Athena cross-layer analysis ==")
	fmt.Printf("packets correlated: %d; frames: %d\n\n", len(rep.Packets), len(rep.Frames))

	fmt.Println("uplink one-way delay (ms):")
	fmt.Printf("  video: %s\n", rep.DelaySummary(packet.KindVideo))
	fmt.Printf("  audio: %s\n\n", rep.DelaySummary(packet.KindAudio))

	sender, core := rep.SpreadsMS()
	fmt.Print(stats.ASCIICDF("frame delay spread at sender (ms)", sender))
	fmt.Print(stats.ASCIICDF("frame delay spread at 5G core (ms)", core))
	fmt.Println()

	fmt.Print(rep.Attribute())

	fmt.Printf("\nprobe OWD core->SFU: %s\n", res.Prober.Summary())
	fmt.Printf("receiver: %d frames displayed, %d stalls, jitter-buffer target %v\n",
		res.Receiver.Renderer.DisplayTimes.Len(),
		res.Receiver.Renderer.Stalls,
		res.Receiver.JitterBufferTarget())
}

// analyzeSeeds runs n consecutive seeds of the default scenario through
// the parallel runner and reports the per-seed headline numbers plus the
// cross-seed spread — the quick answer to "is this seed representative?".
func analyzeSeeds(duration time.Duration, first int64, n int) {
	cfgs := make([]athena.Config, n)
	for i := range cfgs {
		cfg := athena.DefaultConfig()
		cfg.Duration = duration
		cfg.Seed = first + int64(i)
		cfgs[i] = cfg
	}
	results := athena.RunAll(cfgs)

	fmt.Printf("== Athena cross-layer analysis: %d seeds (%d..%d) ==\n\n", n, first, first+int64(n)-1)
	var p50s, p95s, stalls []float64
	for i, res := range results {
		sum := res.Report.DelaySummary(packet.KindVideo)
		fmt.Printf("seed %-4d video UL %s  stalls=%d\n",
			first+int64(i), sum, res.Receiver.Renderer.Stalls)
		p50s = append(p50s, sum.P50)
		p95s = append(p95s, sum.P95)
		stalls = append(stalls, float64(res.Receiver.Renderer.Stalls))
	}
	fmt.Println("\nacross seeds:")
	fmt.Printf("  video UL p50 (ms): %s\n", stats.SummarizeInPlace(p50s))
	fmt.Printf("  video UL p95 (ms): %s\n", stats.SummarizeInPlace(p95s))
	fmt.Printf("  stalls:            %s\n", stats.SummarizeInPlace(stalls))
}

func summarizeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := trace.ReadJSON(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Println(trace.Summary(evs))
	// Per-point packet counts and PHY grant mix.
	points := map[string]int{}
	grants := map[string]int{}
	var retx, failed int
	for _, e := range evs {
		switch e.Layer {
		case "net":
			points[e.Point]++
		case "phy":
			grants[e.Grant]++
			if e.Round > 0 {
				retx++
			}
			if e.Fail {
				failed++
			}
		}
	}
	fmt.Println("packets per capture point:")
	for p, n := range points {
		fmt.Printf("  %-12s %d\n", p, n)
	}
	fmt.Println("TB attempts per grant kind:")
	for g, n := range grants {
		fmt.Printf("  %-12s %d\n", g, n)
	}
	fmt.Printf("failed attempts: %d; retransmissions: %d\n", failed, retx)
	return nil
}
