// Command athena-trace runs one Athena testbed scenario and dumps the raw
// cross-layer traces: per-point packet captures (CSV), per-TB PHY
// telemetry (CSV), and a merged time-ordered event log (JSONL) — the
// artifacts a real deployment's pcaps and NG-Scope would produce.
//
// Usage:
//
//	athena-trace -duration 30s -seed 1 -out /tmp/athena
//
// writes /tmp/athena.packets.csv, /tmp/athena.tbs.csv and
// /tmp/athena.trace.jsonl.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"athena"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/trace"
	"athena/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("athena-trace: ")

	duration := flag.Duration("duration", 30*time.Second, "simulated call duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to trace (simulated in parallel)")
	out := flag.String("out", "athena", "output file prefix")
	cross := flag.Bool("cross", false, "enable the paper's cross-traffic phase schedule (time-compressed)")
	sched := flag.String("sched", "combined", "uplink scheduler: combined|bsr|proactive|appaware|oracle")
	flows := flag.String("flows", "", "comma-separated flow IDs; restrict dumped capture records to these flows")
	cli := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	keepFlow, err := parseFlows(*flows)
	if err != nil {
		log.Fatal(err)
	}

	cfg := athena.DefaultConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	switch *sched {
	case "combined":
		cfg.Sched = ran.SchedCombined
	case "bsr":
		cfg.Sched = ran.SchedBSROnly
	case "proactive":
		cfg.Sched = ran.SchedProactiveOnly
	case "appaware":
		cfg.Sched = ran.SchedAppAware
		cfg.AttachMeta = true
	case "oracle":
		cfg.Sched = ran.SchedOracle
	default:
		log.Fatalf("unknown scheduler %q", *sched)
	}
	if *cross {
		cfg.CrossUEs = 6
		q := cfg.Duration / 4
		cfg.CrossPhases = []ran.CrossPhase{
			{Start: 0, Rate: 0},
			{Start: q, Rate: 14 * units.Mbps},
			{Start: 2 * q, Rate: 16 * units.Mbps},
			{Start: 3 * q, Rate: 18 * units.Mbps},
		}
	}

	if *seeds < 1 {
		*seeds = 1
	}

	stop, err := cli.Start()
	if err != nil {
		log.Fatal(err)
	}

	// Simulate every requested seed up front — the runner fans them across
	// the cores — then write the trace files serially per seed.
	cfgs := make([]athena.Config, *seeds)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = *seed + int64(i)
	}
	results := athena.RunAll(cfgs)

	for i, res := range results {
		prefix := *out
		if *seeds > 1 {
			prefix = fmt.Sprintf("%s.s%d", *out, cfgs[i].Seed)
		}
		if err = dump(prefix, res, keepFlow); err != nil {
			break
		}
	}
	// Every exit after Start goes through stop once, so a failed dump
	// still leaves complete profiles and metrics.
	if err := errors.Join(err, stop()); err != nil {
		log.Fatal(err)
	}
}

// parseFlows parses the -flows value into a keep-set; nil means keep
// everything.
func parseFlows(s string) (map[uint32]bool, error) {
	if s == "" {
		return nil, nil
	}
	keep := make(map[uint32]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -flows entry %q: %v", part, err)
		}
		keep[uint32(f)] = true
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("-flows %q names no flows", s)
	}
	return keep, nil
}

func dump(out string, res *athena.Result, keepFlow map[uint32]bool) error {
	var records []packet.Record
	records = append(records, res.CapSender.Records...)
	records = append(records, res.CapCore.Records...)
	records = append(records, res.CapSFU.Records...)
	records = append(records, res.CapReceiver.Records...)
	if keepFlow != nil {
		kept := records[:0]
		for _, r := range records {
			if keepFlow[r.Flow] {
				kept = append(kept, r)
			}
		}
		records = kept
	}

	var tbs = res.RAN.Telemetry.SnifferView()

	evs := trace.Merge(records, tbs)
	files := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{".packets.csv", func(w io.Writer) error { return trace.WritePacketCSV(w, records) }},
		{".tbs.csv", func(w io.Writer) error { return trace.WriteTBCSV(w, tbs) }},
		{".trace.jsonl", func(w io.Writer) error { return trace.WriteJSON(w, evs) }},
	}
	for _, file := range files {
		name := out + file.suffix
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := file.write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
	}
	fmt.Println(trace.Summary(evs))
	return nil
}
