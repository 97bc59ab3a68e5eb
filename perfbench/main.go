// Command perfbench is the repository's benchmark. It measures three
// workloads against the unmodified program, checks every output, and
// prints the end-to-end metrics (timed mode) or the per-layer metrics
// (traced mode):
//
//	sweep  all registry artifacts through experiment.Sweep at scale 0.25
//	cells  one 1000-UE, 10-cell mixed-workload sharded topology
//	serve  live attribution ingest into a running athena-serve
//
// Run it through run.py, which builds it and athena-serve from source:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result; README.md
// defines every metric.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string // results, profiles and traces
	self     string // this binary, re-executed for worker repetitions
	serveBin string // the athena-serve binary
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		fs := flag.NewFlagSet("worker", flag.ExitOnError)
		workload := fs.String("workload", "", "sweep or cells")
		seed := fs.Int64("seed", defaultSeed, "workload seed")
		traceDir := fs.String("trace-dir", "", "trace the repetition, writing profile and spans here")
		setupOnly := fs.Bool("setup-only", false, "set up, report the time, and exit before the timed call")
		fs.Parse(os.Args[2:])
		if err := workerMain(*workload, *seed, *traceDir, *setupOnly); err != nil {
			log.Fatal(err)
		}
		return
	}

	workload := flag.String("workload", "", "workload to run: sweep, cells or serve")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	outDir := flag.String("out-dir", filepath.Join(".bench_build", "results"), "directory for result files, profiles and traces")
	serveBin := flag.String("serve-bin", filepath.Join(".bench_build", "bin", "athena-serve"), "athena-serve binary for the serve workload")
	flag.Parse()

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		outDir:   *outDir,
		self:     self,
		serveBin: *serveBin,
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if cfg.seconds < 1 {
		log.Fatalf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg runConfig) error {
	start := time.Now()
	var out *outcome
	var err error
	switch cfg.workload {
	case "sweep", "cells":
		out, err = runSimWorkload(cfg)
	case "serve":
		out, err = runServe(cfg)
	default:
		return fmt.Errorf("unknown --workload %q (want sweep, cells or serve)", cfg.workload)
	}
	if err != nil {
		return err
	}
	prov := newProvenance(cfg)
	prov.MeasuredS = time.Since(start).Seconds()
	correct, err := out.report(os.Stdout, cfg, prov)
	if err == nil && !correct {
		err = errors.New("an output was wrong; see the FAIL lines")
	}
	return err
}
