package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/scenario"
	"athena/internal/session"
)

// loadgenParams configures one load-generation run.
type loadgenParams struct {
	Target    string // server URL; empty starts an in-process server
	Sessions  int
	UEs       int
	Cells     int
	Workloads string // "vca" (default) or "mixed": source-topology app families
	Duration  time.Duration
	Tick      time.Duration
	Seed      int64
	Workers   int
	Out       string // report path; empty skips the write
}

// serveReport is the schema of the report -out writes.
type serveReport struct {
	Target    string `json:"target"`
	InProcess bool   `json:"in_process"`

	Sessions    int     `json:"sessions"`
	Streams     int     `json:"streams"`
	UEs         int     `json:"ues"`
	Cells       int     `json:"cells"`
	Workloads   string  `json:"workloads"`
	DurationSec float64 `json:"duration_sec"`
	TickMS      float64 `json:"tick_ms"`
	Seed        int64   `json:"seed"`

	GOMAXPROCS int `json:"gomaxprocs"`
	CPUs       int `json:"cpus"`
	Workers    int `json:"workers"`

	Records int64   `json:"records"`
	Batches int64   `json:"batches"`
	WallSec float64 `json:"wall_sec"`

	// SessionsPerCoreSec is the headline throughput: completed sessions
	// per core per wall second (sessions / wall_sec / gomaxprocs).
	SessionsPerSec     float64 `json:"sessions_per_sec"`
	SessionsPerCoreSec float64 `json:"sessions_per_core_sec"`

	// Client-side POST /records latency and the server's own feed
	// histogram (serve.http.feed_ns), both in nanoseconds.
	ClientPostP50NS int64 `json:"client_post_p50_ns"`
	ClientPostP99NS int64 `json:"client_post_p99_ns"`
	ServerFeedP50NS int64 `json:"server_feed_p50_ns"`
	ServerFeedP99NS int64 `json:"server_feed_p99_ns"`

	// DigestMatches counts sessions whose streamed attribution digest
	// equalled the offline batch correlation; a mismatch aborts the run
	// with a nonzero exit, so a written report always has
	// digest_matches == sessions.
	DigestMatches int `json:"digest_matches"`

	// Fleet observability verification (in-process targets only): the
	// /v1/overview integer cause totals matched the sum of every
	// session's final attribution exactly, the /metrics Prometheus
	// exposition linted and round-tripped against the JSON snapshot, and
	// the /v1/events stream accounted for every lifecycle event.
	OverviewPackets  int64  `json:"overview_packets,omitempty"`
	OverviewExactNS  bool   `json:"overview_exact_ns,omitempty"`
	PromFamilies     int    `json:"prom_families,omitempty"`
	EventsEmitted    uint64 `json:"events_emitted,omitempty"`
	EventsDropped    int64  `json:"events_dropped,omitempty"`
	EventsCreateSeen int64  `json:"events_create_seen,omitempty"`
	EventsCloseSeen  int64  `json:"events_close_seen,omitempty"`
}

// streamWork is one tapped session stream prepared for replication: the
// session config (capture slices stripped), the pre-encoded feed
// batches, and the offline reference digest every replica must match.
// Pre-encoding pays the JSON cost once per stream instead of once per
// session, so the measurement loop exercises the server, not the client
// marshaller.
type streamWork struct {
	id         string
	cfg        session.Config
	chunks     [][]byte
	records    int64
	wantDigest string
}

// buildWork runs the source topology and taps its session streams.
func buildWork(p loadgenParams) ([]streamWork, error) {
	var top scenario.Topology
	if p.Cells > 1 {
		top = scenario.NewMultiCellTopology(p.UEs, p.Cells)
	} else {
		top = scenario.NewTopology(p.UEs)
	}
	top.Seed = p.Seed
	top.Duration = p.Duration
	switch p.Workloads {
	case "", "vca":
		// Historical default: every UE runs the VCA endpoint.
	case "mixed":
		top.MixWorkloads()
	default:
		return nil, fmt.Errorf("unknown -workloads %q (want vca or mixed)", p.Workloads)
	}
	tr := scenario.RunTopology(top)

	streams := tr.SessionStreams()
	if len(streams) == 0 {
		return nil, fmt.Errorf("topology produced no session streams")
	}
	work := make([]streamWork, len(streams))
	for i := range streams {
		ss := &streams[i]
		w := &work[i]
		w.id = ss.ID
		rep := core.Correlate(ss.Input)
		w.wantDigest = rep.PacketsDigest()
		w.cfg = session.Config{
			Input:      ss.Input,
			Cell:       fmt.Sprintf("cell%d", ss.Cell),
			Workload:   string(ss.Workload),
			FlushAfter: flushAfter(rep, p.Tick),
		}
		w.cfg.Input.Sender, w.cfg.Input.Core, w.cfg.Input.TBs = nil, nil, nil
		for _, ch := range ss.Chunks(p.Tick) {
			enc, err := json.Marshal(session.Batch{
				Sender: ch.Sender, Core: ch.Core, TBs: ch.TBs, AdvanceTo: ch.AdvanceTo,
			})
			if err != nil {
				return nil, fmt.Errorf("encode %s chunk: %w", ss.ID, err)
			}
			w.chunks = append(w.chunks, enc)
			w.records += int64(len(ch.Sender) + len(ch.Core) + len(ch.TBs))
		}
	}
	return work, nil
}

// flushAfter is a stream's session flush horizon: zero, which keeps the
// correlator's default, or, for a stream whose slowest packet takes
// longer than that to reach the core (a bulk-transfer uplink queue can
// hold packets for 600 ms and more), that delay rounded up to a tick
// plus one tick. A packet emitted before its core record arrives is
// reported as lost, so a horizon below the stream's worst delay would
// make the streamed attribution differ from the offline one.
func flushAfter(rep *core.Report, tick time.Duration) time.Duration {
	if tick <= 0 {
		tick = 100 * time.Millisecond // the interval Chunks falls back to
	}
	var worst time.Duration
	for i := range rep.Packets {
		if v := &rep.Packets[i]; v.SeenCore {
			worst = max(worst, v.CoreAt-v.SentAt)
		}
	}
	h := (worst+tick-1)/tick*tick + tick
	if h <= core.NewLive(core.Input{}, nil).FlushAfter {
		return 0
	}
	return h
}

// runLoadgen replays the tapped streams into the target server across
// p.Sessions independent sessions and verifies every session's digest
// against its stream's offline correlation. Any feed error or digest
// mismatch fails the run.
func runLoadgen(p loadgenParams) (*serveReport, error) {
	if p.Sessions <= 0 {
		p.Sessions = 1
	}
	if p.Workers <= 0 {
		p.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if p.Workers > p.Sessions {
		p.Workers = p.Sessions
	}

	work, err := buildWork(p)
	if err != nil {
		return nil, err
	}

	target, inproc := p.Target, false
	if target == "" {
		inproc = true
		obs.Enable()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		reg := session.NewRegistry()
		reg.Events = obs.NewEventLog(obs.DefaultEventBuffer)
		reg.AnomalyHARQP99 = 50 * time.Millisecond
		srv := newServer(reg.Handler())
		go srv.Serve(ln)
		defer srv.Close()
		target = "http://" + ln.Addr().String()
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * p.Workers,
		MaxIdleConnsPerHost: 2 * p.Workers,
	}}

	// Workers stride the session index space; each session is created,
	// fed chunk by chunk, digest-verified and deleted before the worker
	// moves on, so up to p.Workers sessions are live at once.
	lats := make([][]int64, p.Workers)
	finals := make([][]session.Status, p.Workers)
	errs := make([]error, p.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < p.Sessions; i += p.Workers {
				sw := &work[i%len(work)]
				id := fmt.Sprintf("lg-%04d-%s", i, sw.id)
				st, err := runSession(client, target, id, sw, &lats[w])
				if err != nil {
					errs[w] = fmt.Errorf("session %s: %w", id, err)
					return
				}
				finals[w] = append(finals[w], st)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	var records int64
	for i := 0; i < p.Sessions; i++ {
		records += work[i%len(work)].records
	}
	rep := &serveReport{
		Target:             target,
		InProcess:          inproc,
		Sessions:           p.Sessions,
		Streams:            len(work),
		UEs:                p.UEs,
		Cells:              p.Cells,
		Workloads:          workloadsLabel(p.Workloads),
		DurationSec:        p.Duration.Seconds(),
		TickMS:             float64(p.Tick) / float64(time.Millisecond),
		Seed:               p.Seed,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		CPUs:               runtime.NumCPU(),
		Workers:            p.Workers,
		Records:            records,
		Batches:            int64(len(all)),
		WallSec:            wall.Seconds(),
		SessionsPerSec:     float64(p.Sessions) / wall.Seconds(),
		SessionsPerCoreSec: float64(p.Sessions) / wall.Seconds() / float64(runtime.GOMAXPROCS(0)),
		ClientPostP50NS:    percentile(all, 0.50),
		ClientPostP99NS:    percentile(all, 0.99),
		DigestMatches:      p.Sessions,
	}
	if snap, err := fetchMetrics(client, target); err == nil {
		h := snap.Histograms["serve.http.feed_ns"]
		rep.ServerFeedP50NS, rep.ServerFeedP99NS = h.P50, h.P99
	}

	// Fleet verification only makes sense against a server this run owns
	// exclusively: a shared external target carries other tenants'
	// sessions in its rollup and event stream.
	if inproc {
		if err := verifyFleet(client, target, finals, rep); err != nil {
			return nil, fmt.Errorf("fleet verification: %w", err)
		}
	}

	if p.Out != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(p.Out, append(enc, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runSession drives one session through its full lifecycle, appending
// each POST /records round-trip time to lat, and returns the final
// (post-close) status for fleet-level verification.
func runSession(c *http.Client, target, id string, sw *streamWork, lat *[]int64) (session.Status, error) {
	cfg := sw.cfg
	cfg.ID = id
	var st session.Status
	if err := doJSON(c, "POST", target+"/v1/sessions", mustEncode(cfg), http.StatusCreated, &st); err != nil {
		return st, fmt.Errorf("create: %w", err)
	}
	var fr session.FeedResponse
	for i, enc := range sw.chunks {
		t0 := time.Now()
		err := doJSON(c, "POST", target+"/v1/sessions/"+id+"/records", enc, http.StatusOK, &fr)
		*lat = append(*lat, int64(time.Since(t0)))
		if err != nil {
			return st, fmt.Errorf("feed chunk %d: %w", i, err)
		}
	}
	if err := doJSON(c, "GET", target+"/v1/sessions/"+id+"/attribution", nil, http.StatusOK, &st); err != nil {
		return st, fmt.Errorf("query: %w", err)
	}
	if st.Feed.Pending != 0 {
		return st, fmt.Errorf("replay left %d packets pending", st.Feed.Pending)
	}
	if st.Digest != sw.wantDigest {
		return st, fmt.Errorf("digest mismatch: streamed %s, offline %s", st.Digest, sw.wantDigest)
	}
	if err := doJSON(c, "DELETE", target+"/v1/sessions/"+id, nil, http.StatusOK, &st); err != nil {
		return st, fmt.Errorf("close: %w", err)
	}
	return st, nil
}

// verifyFleet cross-checks the server's fleet observability against the
// ground truth this loadgen run holds: the sum of every session's final
// integer attribution totals. Three independent surfaces must agree —
// the /v1/overview rollup (exactly, integer for integer), the /metrics
// Prometheus exposition (lints and round-trips the feed histogram
// against the JSON snapshot), and the /v1/events stream (every create
// paired with a close).
func verifyFleet(c *http.Client, target string, finals [][]session.Status, rep *serveReport) error {
	var wantPackets int64
	wantNS := make(map[core.Cause]int64)
	var sessions int64
	for _, fs := range finals {
		for _, st := range fs {
			sessions++
			wantPackets += int64(st.Attribution.Packets)
			for cause, ns := range st.Attribution.TotalNS {
				wantNS[cause] += ns
			}
		}
	}

	var ov session.Overview
	if err := doJSON(c, "GET", target+"/v1/overview", nil, http.StatusOK, &ov); err != nil {
		return fmt.Errorf("overview: %w", err)
	}
	if ov.Packets != wantPackets {
		return fmt.Errorf("overview packets %d != session sum %d", ov.Packets, wantPackets)
	}
	for cause, ns := range wantNS {
		if ov.TotalNS[cause] != ns {
			return fmt.Errorf("overview %s: %d ns != session sum %d ns", cause, ov.TotalNS[cause], ns)
		}
		if ov.TotalMS[cause] != float64(ns)/1e6 {
			return fmt.Errorf("overview %s: ms %v is not the exact rendering of %d ns", cause, ov.TotalMS[cause], ns)
		}
	}
	rep.OverviewPackets = ov.Packets
	rep.OverviewExactNS = true

	// Prometheus exposition: lint, then round-trip the feed histogram
	// against the JSON snapshot of the same registry. All sessions are
	// closed, so serve.http.feed_ns is quiescent between the two scrapes.
	resp, err := c.Get(target + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		return fmt.Errorf("/metrics content type %q", ct)
	}
	page, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("exposition does not lint: %w", err)
	}
	rep.PromFamilies = len(page.Families)
	snap, err := fetchMetrics(c, target)
	if err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	want := snap.Histograms["serve.http.feed_ns"]
	fam := page.Families[obs.PromName("serve.http.feed_ns")]
	if fam == nil {
		return fmt.Errorf("serve.http.feed_ns missing from exposition")
	}
	_, sum, count, err := fam.HistogramCounts()
	if err != nil {
		return fmt.Errorf("feed histogram: %w", err)
	}
	if count != want.Count || sum != float64(want.Sum) {
		return fmt.Errorf("feed histogram count/sum %d/%v != snapshot %d/%d",
			count, sum, want.Count, want.Sum)
	}

	// Event stream: paginate from zero and pair every create with a
	// close. An overrun ring (dropped > 0) makes counting unsound; report
	// it instead of failing, since the ring size is a deployment choice.
	var since uint64
	var dropped int64
	var creates, closes int64
	for {
		var pageResp session.EventsResponse
		url := fmt.Sprintf("%s/v1/events?since=%d&max=500", target, since)
		if err := doJSON(c, "GET", url, nil, http.StatusOK, &pageResp); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		dropped += pageResp.Dropped
		var last uint64
		for _, e := range pageResp.Events {
			if e.Seq <= last && last != 0 {
				return fmt.Errorf("event seqs not monotonic: %d after %d", e.Seq, last)
			}
			last = e.Seq
			switch e.Type {
			case "session.create":
				creates++
			case "session.close":
				closes++
			}
		}
		rep.EventsEmitted = pageResp.Stats.Emitted
		rep.EventsDropped = pageResp.Stats.Dropped
		if len(pageResp.Events) == 0 {
			break
		}
		since = pageResp.Next
	}
	rep.EventsCreateSeen, rep.EventsCloseSeen = creates, closes
	if dropped == 0 && (creates != sessions || closes != sessions) {
		return fmt.Errorf("event stream saw %d creates / %d closes for %d sessions",
			creates, closes, sessions)
	}
	return nil
}

// doJSON round-trips one API call, decoding the reply into out when the
// status matches and the error envelope when it does not.
func doJSON(c *http.Client, method, url string, body []byte, want int, out any) error {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var eb struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		return fmt.Errorf("%s %s: %d (want %d): %s", method, url, resp.StatusCode, want, eb.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func fetchMetrics(c *http.Client, target string) (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := doJSON(c, "GET", target+"/metrics/json", nil, http.StatusOK, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// workloadsLabel canonicalizes the empty default for the report.
func workloadsLabel(w string) string {
	if w == "" {
		return "vca"
	}
	return w
}

func mustEncode(v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return enc
}

// percentile reads quantile q off a sorted latency slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
