package obs

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// TestCLIFlagsWriteEveryOutput drives the shared CLI flag set the way a
// command does: register on a fresh FlagSet, parse, Start, work, stop.
// Every requested profile and observability file must exist and be
// non-empty afterwards.
func TestCLIFlagsWriteEveryOutput(t *testing.T) {
	defer Disable()
	defer SetTimeline(nil)
	dir := t.TempDir()
	outputs := []string{"cpuprofile", "memprofile", "blockprofile", "mutexprofile", "metrics-out", "timeline"}
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	c := AddCLIFlags(fs)
	if fs.Lookup("debug-addr") == nil {
		t.Fatal("-debug-addr not registered")
	}
	var args []string
	for _, name := range outputs {
		if f := fs.Lookup(name); f == nil || f.DefValue != "" {
			t.Fatalf("-%s not registered with an empty default", name)
		}
		args = append(args, "-"+name, filepath.Join(dir, name))
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}

	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() || Timeline() == nil {
		t.Fatal("-metrics-out/-timeline did not enable collection")
	}
	cnt := NewCounter("clitest.work")
	defer Unregister("clitest.work")
	sp := StartSpan("clitest")
	// Contended work, so the block and mutex profiles have samples.
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(50 * time.Millisecond)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				cnt.Inc()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	for _, name := range outputs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("-%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("-%s wrote an empty file", name)
		}
	}
	if rate := runtime.SetMutexProfileFraction(-1); rate != 0 {
		t.Fatalf("mutex profiling left on at fraction %d", rate)
	}
}

// TestCLIFlagsEmptyDoesNothing pins the no-flags path: Start and stop
// enable no collection, start no CPU profile, leave contention sampling
// off and write no file.
func TestCLIFlagsEmptyDoesNothing(t *testing.T) {
	Disable()
	SetTimeline(nil)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	stop, err := (&CLIFlags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() || Timeline() != nil {
		t.Fatal("empty flags enabled collection")
	}
	if rate := runtime.SetMutexProfileFraction(-1); rate != 0 {
		t.Fatalf("empty flags set the mutex profile fraction to %d", rate)
	}
	// A CPU profile can start only if none is running.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("empty flags started a CPU profile: %v", err)
	}
	pprof.StopCPUProfile()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("empty flags wrote %d files (%v)", len(ents), err)
	}
}
