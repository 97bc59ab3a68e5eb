package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// internalLayers are the repository's internal packages that get a CPU
// layer of their own.
var internalLayers = []string{
	"media", "ran", "sim", "netem", "vca", "apps", "cc", "core",
	"scenario", "runner", "experiment", "stats", "session", "obs",
}

// cpuLayers are the layers a CPU profile is folded into, in report
// order: internalLayers, "other" for the rest of the repository's code,
// "bench" for the benchmark's own load generation, "http" for net/http
// work outside any handler, and "gc" for the Go runtime alone.
var cpuLayers = append(append([]string(nil), internalLayers...), "other", "bench", "http", "gc")

// layerOf charges one sample's stack, innermost frame first, to a layer.
// The innermost frame of the repository's code decides: an
// athena/internal/<pkg> frame names its package (or "other" for a
// package outside cpuLayers), a frame of the root athena package is
// "other", and a frame of package main is the benchmark's own. So
// math.Sin under media.Source.Next is media, and runtime.mallocgc under
// ran.onULSlot is ran. A stack with none of these is net/http's when it
// holds a net/http frame, and the runtime's ("gc") otherwise.
func layerOf(stack []string) string {
	sawHTTP := false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "athena/internal/"):
			pkg := strings.TrimPrefix(fn, "athena/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range internalLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		case strings.HasPrefix(fn, "athena."), strings.HasPrefix(fn, "athena/"):
			return "other"
		case strings.HasPrefix(fn, "main."):
			return "bench"
		case strings.HasPrefix(fn, "net/http."):
			sawHTTP = true
		}
	}
	if sawHTTP {
		return "http"
	}
	return "gc"
}

// stackSample is one decoded CPU profile sample: its function names,
// innermost first, and the CPU time it stands for.
type stackSample struct {
	stack []string
	cpuNS int64
}

// foldCPU sums the samples' CPU time per layer, in seconds. Every layer
// of cpuLayers is present, zero when no sample landed in it.
func foldCPU(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.cpuNS) / 1e9
	}
	return out
}

// foldProfile folds the CPU profile at path. It reads the profile through
// the Go toolchain's own pprof, which prints every sample's stack and
// value as text (see parseTraces).
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	samples, err := parseTraces(string(text))
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return foldCPU(samples), nil
}

// parseTraces reads the output of `go tool pprof -traces -unit=ns`. After
// a header, each sample is a block opened by a separator line. Its first
// frame line carries the sample's value ("10000000ns   name"), further
// frames are indented under it, and inlined frames end in " (inline)".
// Label lines ("key:  value") are skipped.
func parseTraces(text string) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	inSamples := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inSamples, cur = true, nil
		case !inSamples || strings.TrimSpace(line) == "":
		case cur != nil && strings.HasPrefix(line, "             "):
			cur.stack = append(cur.stack, frameName(line))
		default:
			value, name, ok := strings.Cut(strings.TrimSpace(line), "ns   ")
			if !ok {
				continue // a label line
			}
			ns, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, fmt.Errorf("sample value in %q: %w", line, err)
			}
			out = append(out, stackSample{stack: []string{frameName(name)}, cpuNS: int64(ns)})
			cur = &out[len(out)-1]
		}
	}
	if !inSamples {
		return nil, errors.New("no samples section in the pprof output")
	}
	return out, nil
}

// frameName is a frame line's function name.
func frameName(line string) string {
	return strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
}
