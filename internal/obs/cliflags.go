package obs

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLIFlags is the shared profiling and observability flag contract every
// CLI exposes: -cpuprofile (CPU samples for the life of the run),
// -memprofile (heap snapshot at exit), -blockprofile and -mutexprofile
// (contention sampling for the run, snapshot at exit), -metrics-out
// (registry snapshot JSON at exit), -timeline (Chrome trace-event JSON
// at exit) and -debug-addr (live expvar + pprof HTTP endpoint). Empty
// paths are skipped.
type CLIFlags struct {
	CPUProfile   string
	MemProfile   string
	BlockProfile string
	MutexProfile string

	MetricsOut  string
	TimelineOut string
	DebugAddr   string
}

// AddCLIFlags registers the profiling and observability flags on fs
// (typically flag.CommandLine, before flag.Parse).
func AddCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&c.BlockProfile, "blockprofile", "", "write a goroutine blocking profile to this file at exit")
	fs.StringVar(&c.MutexProfile, "mutexprofile", "", "write a mutex contention profile to this file at exit")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot (counters, gauges, histograms) to this file at exit")
	fs.StringVar(&c.TimelineOut, "timeline", "", "write a Chrome trace-event JSON span timeline (Perfetto-loadable) to this file at exit")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:8372)")
	return c
}

// Start begins collection as requested. A CPU profile samples from now
// until stop; block and mutex profiles turn on the runtime's contention
// sampling; a heap profile is snapshotted at stop. Metric recording is
// enabled whenever -metrics-out, -timeline or -debug-addr is set, the
// global timeline when -timeline is set, and the debug HTTP endpoint
// when -debug-addr is set. The returned stop function writes every
// requested file; call it exactly once, after the workload, on every
// exit path. With an all-empty CLIFlags, Start and stop do nothing.
func (c *CLIFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		if cpuFile, err = os.Create(c.CPUProfile); err != nil {
			return nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	if c.BlockProfile != "" {
		// Sample every blocking event; the workloads here are short-lived
		// CLI runs where full fidelity beats sampling cheapness.
		runtime.SetBlockProfileRate(1)
	}
	if c.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	var tr *Tracer
	if c.MetricsOut != "" || c.TimelineOut != "" || c.DebugAddr != "" {
		Enable()
	}
	if c.TimelineOut != "" {
		tr = NewTracer()
		SetTimeline(tr)
	}
	if c.DebugAddr != "" {
		go func() {
			if err := ServeDebug(c.DebugAddr); err != nil {
				fmt.Fprintf(os.Stderr, "obs: debug endpoint: %v\n", err)
			}
		}()
	}

	return func() error {
		var errs []error
		if c.MetricsOut != "" {
			if err := WriteMetricsFile(c.MetricsOut); err != nil {
				errs = append(errs, fmt.Errorf("writing metrics snapshot: %w", err))
			}
		}
		if tr != nil {
			errs = append(errs, tr.WriteChromeTraceFile(c.TimelineOut))
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if c.BlockProfile != "" {
			errs = append(errs, writeProfile("block", c.BlockProfile))
			runtime.SetBlockProfileRate(0)
		}
		if c.MutexProfile != "" {
			errs = append(errs, writeProfile("mutex", c.MutexProfile))
			runtime.SetMutexProfileFraction(0)
		}
		if c.MemProfile != "" {
			runtime.GC() // settle live objects so the snapshot reflects retained memory
			errs = append(errs, writeProfile("heap", c.MemProfile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeProfile snapshots a named runtime profile (heap, block, mutex) to
// path.
func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s profile: %w", name, err)
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("writing %s profile: %w", name, err)
	}
	return f.Close()
}
