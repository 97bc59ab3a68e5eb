package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/scenario"
	"athena/internal/session"
)

// The serve workload's shape. The source topologies are small on purpose:
// their streams are replayed many times, so set-up stays short and the
// timed part exercises the service, not the simulator.
const (
	sourceUEs      = 8
	sourceCells    = 2
	sourceDuration = 2 * time.Second
	tick           = 100 * time.Millisecond

	// sourceDraws is how many source topologies a run draws, each on its
	// own seed derived from --seed; sessions rotate over all their
	// streams. One seed's radio conditions move every stream of its
	// topology together (a slow draw stretches all bulk uplinks past
	// the flush horizon and costs the server memory and CPU), so a run
	// on a single draw would measure its seed as much as the server.
	sourceDraws = 4

	// feedLimitMS is the p99 limit on a feed: one tenth of the tick.
	feedLimitMS = 10.0

	// The load is sized from two figures the repository already has.
	// loadgenSessions is the concurrent session count of its own load
	// generator (athena-serve -loadgen -sessions, default 120) and of the
	// CI serve smoke test. refSatBatchesPerS is the feed rate that load
	// generator's closed loop reached on a 2-vCPU machine, about 3000
	// batches/s. A real-time session feeds one batch per tick.
	loadgenSessions    = 120
	refSatBatchesPerS  = 3000
	sessionBatchesPerS = int(time.Second / tick)

	// The open-loop phases offer fixed shares of that saturation: lo a
	// tenth (30 sessions, 300 batches/s), hi a third (100 sessions, 1000
	// batches/s). Alongside them the read stream makes one read a second
	// for each of loadgenSessions sessions, spread over the connections.
	loSessions = refSatBatchesPerS / 10 / sessionBatchesPerS
	hiSessions = refSatBatchesPerS / 3 / sessionBatchesPerS
	readRate   = loadgenSessions

	// The closed-loop phase feeds the load generator's session count back
	// to back per round, two rounds per 5 s of --seconds (at least 4)
	// after one warm-up round, and reports the median round: many short
	// rounds ride out the machine's hiccups better than one long one.
	satRoundSessions = loadgenSessions

	// satUnitRecords is the serve workload's unit of work for wall_s:
	// the time to ingest this many records at saturation.
	satUnitRecords = 100000

	// A timed run sets up setupRoundsFirst times before the timed part
	// and setupRoundsLast times after it, and reports the median, so
	// that a slow spell of the machine at one end of the run cannot
	// cover every set-up.
	setupRoundsFirst = 5
	setupRoundsLast  = 4
)

// stream is one tapped session stream, ready to replay: the session
// config without captures, the tick batches pre-encoded once so the
// client's JSON cost is not measured, and the offline digest every
// replay must reproduce.
type stream struct {
	id      string
	cfg     session.Config
	chunks  [][]byte
	records []int64 // per chunk
	digest  string
}

// sourceSeeds are the seeds of a run's source topologies.
func sourceSeeds(seed int64) []int64 {
	seeds := make([]int64, sourceDraws)
	for k := range seeds {
		seeds[k] = seed*sourceDraws + int64(k)
	}
	return seeds
}

// prepareStreams runs the source topologies of seed and taps their
// streams.
func prepareStreams(seed int64) ([]stream, error) {
	var out []stream
	for _, sub := range sourceSeeds(seed) {
		streams, err := tapTopology(sub)
		if err != nil {
			return nil, err
		}
		out = append(out, streams...)
	}
	return out, nil
}

// tapTopology runs one source topology on seed and taps its streams.
func tapTopology(seed int64) ([]stream, error) {
	top := scenario.NewMultiCellTopology(sourceUEs, sourceCells)
	top.Seed = seed
	top.Duration = sourceDuration
	top.MixWorkloads()
	tr := scenario.RunTopology(top)
	taps := tr.SessionStreams()
	if len(taps) != sourceUEs {
		return nil, fmt.Errorf("source topology gave %d streams, want %d", len(taps), sourceUEs)
	}
	out := make([]stream, len(taps))
	for i := range taps {
		ss := &taps[i]
		s := &out[i]
		s.id = fmt.Sprintf("%s-%d", ss.ID, seed)
		rep := core.Correlate(ss.Input)
		s.digest = rep.PacketsDigest()
		s.cfg = session.Config{Input: ss.Input, Cell: fmt.Sprintf("cell%d", ss.Cell), Workload: string(ss.Workload),
			FlushAfter: flushAfter(rep)}
		s.cfg.Input.Sender, s.cfg.Input.Core, s.cfg.Input.TBs = nil, nil, nil
		for _, ch := range ss.Chunks(tick) {
			enc, err := json.Marshal(session.Batch{Sender: ch.Sender, Core: ch.Core, TBs: ch.TBs, AdvanceTo: ch.AdvanceTo})
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", ss.ID, err)
			}
			s.chunks = append(s.chunks, enc)
			s.records = append(s.records, int64(len(ch.Sender)+len(ch.Core)+len(ch.TBs)))
		}
	}
	return out, nil
}

// flushAfter is the session's flush horizon: zero, which keeps the
// correlator's default, or, for a stream whose slowest packet takes
// longer than that to reach the core (bulk transfer's uplink queue can
// hold packets for 600 ms and more), that delay rounded up to a tick
// plus one tick. A packet emitted before
// its core record arrives is reported as lost, so a horizon below the
// stream's worst delay would make the streamed attribution differ from
// the offline one.
func flushAfter(rep *core.Report) time.Duration {
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

// serverProc is a running athena-serve child.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

// startServer starts athena-serve on a loopback port with its production
// settings and waits until it answers /healthz.
func startServer(bin, logPath string) (*serverProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	sp := &serverProc{cmd: cmd}
	deadline := time.Now().Add(20 * time.Second)
	for sp.base == "" {
		if time.Now().After(deadline) {
			sp.kill()
			return nil, errors.New("athena-serve did not report its address")
		}
		time.Sleep(2 * time.Millisecond)
		b, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(b), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				sp.base = "http://" + addr
			}
		}
	}
	for {
		resp, err := http.Get(sp.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		if time.Now().After(deadline) {
			sp.kill()
			return nil, fmt.Errorf("athena-serve not healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, waits for it to exit and returns
// its resource usage.
func (sp *serverProc) stop() (*syscall.Rusage, error) {
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		sp.kill()
		return nil, err
	}
	if err := sp.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("athena-serve exit: %w", err)
	}
	ru, _ := sp.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// kill ends the server on an error path.
func (sp *serverProc) kill() {
	_ = sp.cmd.Process.Kill()
	_ = sp.cmd.Wait()
}

// setupServe prepares the streams and starts a server, timing both. It
// checks that the streams' digests repeat those of ref when ref is given.
func setupServe(cfg runConfig, ref []stream) ([]stream, *serverProc, float64, error) {
	t0 := time.Now()
	streams, err := prepareStreams(cfg.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sp, err := startServer(cfg.serveBin, filepath.Join(cfg.outDir, fmt.Sprintf("serve-seed%d.server.log", cfg.seed)))
	if err != nil {
		return nil, nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	for i := range ref {
		if streams[i].digest != ref[i].digest {
			sp.kill()
			return nil, nil, 0, fmt.Errorf("stream %s digest changed between set-ups", streams[i].id)
		}
	}
	return streams, sp, setup, nil
}

// client is one load-generator connection. Its accumulators are touched
// only by the goroutine running its schedule.
type client struct {
	http    *http.Client
	base    string
	streams []stream

	checks   int
	fails    []string
	sessions int
	records  int64
	batches  int64
	packets  int64
	causeNS  map[core.Cause]int64
}

func newClient(base string, streams []stream) *client {
	return &client{
		// One connection per client: the generator opens no more
		// connections than it has clients.
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base:    base,
		streams: streams,
		causeNS: map[core.Cause]int64{},
	}
}

// call performs one API request, decoding the reply into out (or
// draining it) and failing on any status but want.
func (c *client) call(parent obs.Span, method, path string, body []byte, want int, out any) error {
	sp := parent.Child(method + " " + path)
	defer sp.End()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (c *client) fail(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

// verify checks a session's attribution against its stream's offline
// digest.
func (c *client) verify(st session.Status, s *stream) {
	c.checks++
	switch {
	case st.Feed.Pending != 0:
		c.fail("session %s left %d packets pending", st.ID, st.Feed.Pending)
	case st.Digest != s.digest:
		c.fail("session %s streamed digest %.16s, offline %.16s", st.ID, st.Digest, s.digest)
	}
}

// closed records a closed session's final totals for the overview check.
func (c *client) closed(st session.Status, s *stream) {
	c.sessions++
	c.packets += int64(st.Attribution.Packets)
	for cause, ns := range st.Attribution.TotalNS {
		c.causeNS[cause] += ns
	}
	for _, n := range s.records {
		c.records += n
	}
	c.batches += int64(len(s.chunks))
}

// sessionOps returns the op that starts a real-time session on slot at
// due: it creates the session, feeds one batch per tick, reads the
// attribution after the last batch and closes it, and then starts the
// slot's next session, unless that would start at or after end.
func (c *client) sessionOps(phase obs.Span, tag string, slot, gen int, due, end time.Time, live map[int]string) dueOp {
	s := &c.streams[(slot+gen)%len(c.streams)]
	id := fmt.Sprintf("%s-s%d-g%d-%s", tag, slot, gen, s.id)
	sp := phase.Child("session " + id)
	var feed func(k int, due time.Time) dueOp
	finish := func(due time.Time) dueOp {
		return dueOp{due: due, run: func() ([]dueOp, error) {
			defer sp.End()
			delete(live, slot)
			var st session.Status
			if err := c.call(sp, "GET", "/v1/sessions/"+id+"/attribution", nil, http.StatusOK, &st); err != nil {
				c.checks++
				c.fail("%v", err)
			} else {
				c.verify(st, s)
			}
			c.checks++
			if err := c.call(sp, "DELETE", "/v1/sessions/"+id, nil, http.StatusOK, &st); err != nil {
				c.fail("%v", err)
			} else {
				c.closed(st, s)
			}
			if !due.Before(end) {
				return nil, nil
			}
			return []dueOp{c.sessionOps(phase, tag, slot, gen+1, due, end, live)}, nil
		}}
	}
	feed = func(k int, due time.Time) dueOp {
		return dueOp{due: due, kind: "feed", run: func() ([]dueOp, error) {
			c.checks++
			err := c.call(sp, "POST", "/v1/sessions/"+id+"/records", s.chunks[k], http.StatusOK, nil)
			if err != nil {
				c.fail("%v", err)
			}
			if k+1 < len(s.chunks) {
				return []dueOp{feed(k+1, due.Add(tick))}, err
			}
			return []dueOp{finish(due)}, err
		}}
	}
	return dueOp{due: due, run: func() ([]dueOp, error) {
		c.checks++
		cfg := s.cfg
		cfg.ID = id
		body, err := json.Marshal(cfg)
		if err == nil {
			err = c.call(sp, "POST", "/v1/sessions", body, http.StatusCreated, nil)
		}
		if err != nil {
			c.fail("create %s: %v", id, err)
			sp.End()
			return nil, err
		}
		live[slot] = id
		return []dueOp{feed(0, due.Add(tick))}, nil
	}}
}

// readOps returns the client's read stream from start until end: every
// period one GET, rotating over the fleet overview, a live session's
// attribution and the Prometheus exposition.
func (c *client) readOps(phase obs.Span, n int, due, end time.Time, period time.Duration, live map[int]string) dueOp {
	return dueOp{due: due, kind: "read", run: func() ([]dueOp, error) {
		path := "/v1/overview"
		switch n % 3 {
		case 1:
			for _, id := range live {
				path = "/v1/sessions/" + id + "/attribution"
				break
			}
		case 2:
			path = "/metrics"
		}
		c.checks++
		err := c.call(phase, "GET", path, nil, http.StatusOK, nil)
		if err != nil {
			c.fail("read %v", err)
		}
		if next := due.Add(period); next.Before(end) {
			return []dueOp{c.readOps(phase, n+1, next, end, period, live)}, err
		}
		return nil, err
	}}
}

// openLoopPhase runs sessions concurrent real-time sessions for window,
// with the read stream alongside, over the clients. Sessions still live
// at the end of the window run to completion; no new one starts.
func openLoopPhase(name string, clients []*client, sessions int, window time.Duration, tracer *obs.Tracer) *loopStats {
	phase := tracer.Begin(name, 0)
	defer phase.End()
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(window)
	readPeriod := time.Second * time.Duration(len(clients)) / readRate
	all := newLoopStats()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w, c := range clients {
		live := map[int]string{}
		var ops []dueOp
		for slot := w; slot < sessions; slot += len(clients) {
			// Stagger starts across one tick so batches arrive evenly.
			ops = append(ops, c.sessionOps(phase, name, slot, 0, start.Add(tick*time.Duration(slot)/time.Duration(sessions)), end, live))
		}
		ops = append(ops, c.readOps(phase, w, start.Add(time.Second*time.Duration(w)/readRate), end, readPeriod, live))
		wg.Add(1)
		go func(ops []dueOp) {
			defer wg.Done()
			st := runSchedule(ops)
			mu.Lock()
			all.merge(st)
			mu.Unlock()
		}(ops)
	}
	wg.Wait()
	return all
}

// closedLoopPhase feeds n sessions back to back over the clients, each
// batch sent as soon as the previous reply arrives, and returns the
// phase's wall time and the records and batches fed.
func closedLoopPhase(clients []*client, n int) (time.Duration, int64, int64) {
	var records, batches int64
	for _, c := range clients {
		records -= c.records
		batches -= c.batches
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for i := w; i < n; i += len(clients) {
				op := c.sessionOps(obs.Span{}, "sat", i, 0, time.Time{}, time.Time{}, map[int]string{})
				ops := []dueOp{op}
				for len(ops) > 0 {
					next, _ := ops[0].run()
					ops = append(ops[1:], next...)
				}
			}
		}(w, c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, c := range clients {
		records += c.records
		batches += c.batches
	}
	return wall, records, batches
}

// verifyOverview checks the server's fleet rollup against the clients'
// closed sessions: the packet count and every integer cause total must
// equal the sums of the per-session finals.
func verifyOverview(clients []*client) (int, []string) {
	var packets int64
	want := map[core.Cause]int64{}
	for _, c := range clients {
		packets += c.packets
		for k, v := range c.causeNS {
			want[k] += v
		}
	}
	var ov session.Overview
	if err := clients[0].call(obs.Span{}, "GET", "/v1/overview", nil, http.StatusOK, &ov); err != nil {
		return 1, []string{err.Error()}
	}
	checks := 1 + len(want)
	var fails []string
	if ov.Packets != packets {
		fails = append(fails, fmt.Sprintf("overview packets %d, sessions sum to %d", ov.Packets, packets))
	}
	for k, v := range want {
		if ov.TotalNS[k] != v {
			fails = append(fails, fmt.Sprintf("overview %s %d ns, sessions sum to %d ns", k, ov.TotalNS[k], v))
		}
	}
	return checks, fails
}

// latencyMetrics records a latency stream's median and p99 under prefix,
// noting the sample count and the highest percentile it supports.
func latencyMetrics(out *outcome, prefix string, lat []float64) {
	n := len(lat)
	tp := tailPercentile(n)
	out.metric(prefix+"_p50_ms", percentile(lat, 50), "ms")
	out.metric(prefix+"_p99_ms", percentile(lat, 99), "ms")
	out.note("%s: %d samples, highest percentile with 10 beyond it p%g", prefix, n, tp)
	if tp < 99 {
		out.note("%s: too few samples for a p99; run longer", prefix)
	}
}

// runServe measures the serve workload; see README.md for its phases.
func runServe(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var streams []stream
	var sp *serverProc
	var setups []float64
	// An early return ends the server still running.
	defer func() {
		if sp != nil && sp.cmd.ProcessState == nil {
			sp.kill()
		}
	}()
	// setUp sets up n times, stopping each server but the last.
	setUp := func(n int) error {
		for r := 0; r < n; r++ {
			if sp != nil {
				if _, err := sp.stop(); err != nil {
					return err
				}
			}
			s, p, setup, err := setupServe(cfg, streams)
			if err != nil {
				return err
			}
			streams, sp, setups = s, p, append(setups, setup)
		}
		return nil
	}
	rounds := setupRoundsFirst
	if cfg.trace {
		rounds = 1
	}
	if err := setUp(rounds); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	newClients := func() []*client {
		cs := make([]*client, workers)
		for i := range cs {
			cs[i] = newClient(sp.base, streams)
		}
		return cs
	}
	S := time.Duration(cfg.seconds) * time.Second

	var clients []*client
	if cfg.trace {
		plain := newClients()
		hiPlain := openLoopPhase("hi", plain, hiSessions, S/5, nil)
		tracer := obs.NewTracer()
		traced := newClients()
		hiTraced := openLoopPhase("hi", traced, hiSessions, S/5, tracer)
		clients = append(plain, traced...)
		p50 := percentile(hiPlain.lat["feed"], 50)
		out.layer("trace_overhead_frac", percentile(hiTraced.lat["feed"], 50)/p50-1)
		out.layer("loadgen.late_p99_ms", percentile(hiPlain.lateMS, 99))
		out.layer("loadgen.backlog_max", float64(hiPlain.backlogMax))
		out.note("hi phase feed p50 %.3f ms untraced, %.3f ms traced", p50, percentile(hiTraced.lat["feed"], 50))
		if err := tracer.WriteChromeTraceFile(filepath.Join(cfg.outDir, fmt.Sprintf("serve-seed%d.loadgen.trace.json", cfg.seed))); err != nil {
			return nil, err
		}
	} else {
		clients = newClients()
		// The sat rounds run together on the fresh server, before the
		// open-loop phases: rounds after hi ran up to half again as long
		// as those before it, and a median over two such groups swings
		// between them. The warm-up round lets the server's heap and
		// connections reach their working size; it is not counted.
		warmup, _, _ := closedLoopPhase(clients, satRoundSessions)
		var satWalls, satRates, satBatchRates []float64
		for r := 0; r < 2*max(2, cfg.seconds/5); r++ {
			wall, records, batches := closedLoopPhase(clients, satRoundSessions)
			satWalls = append(satWalls, wall.Seconds())
			satRates = append(satRates, float64(records)/wall.Seconds())
			satBatchRates = append(satBatchRates, float64(batches)/wall.Seconds())
		}
		lo := openLoopPhase("lo", clients, loSessions, S*3/10, nil)
		hi := openLoopPhase("hi", clients, hiSessions, S*3/10, nil)
		latencyMetrics(out, "feed_lo", lo.lat["feed"])
		latencyMetrics(out, "feed_hi", hi.lat["feed"])
		latencyMetrics(out, "read", append(lo.lat["read"], hi.lat["read"]...))
		rate := median(satRates)
		out.metric("sat_records_per_s", rate, "1/s")
		// A fixed amount of ingest, so that the record count of the
		// seed's streams does not move the metric.
		out.metric("wall_s", satUnitRecords/rate, "s")
		out.note("sat: %d rounds of %d sessions after a %.3f s warm-up round, wall %s s", len(satWalls), satRoundSessions, warmup.Seconds(), fmtList(satWalls))
		satBatches := median(satBatchRates)
		out.note("sat: %.0f batches/s; lo offers %.0f%% of it, hi %.0f%%", satBatches,
			100*float64(loSessions*sessionBatchesPerS)/satBatches, 100*float64(hiSessions*sessionBatchesPerS)/satBatches)
		out.note("lo: late p99 %.3f ms, backlog max %d; hi: late p99 %.3f ms, backlog max %d",
			percentile(lo.lateMS, 99), lo.backlogMax, percentile(hi.lateMS, 99), hi.backlogMax)
		if p := percentile(hi.lat["feed"], 99); p > feedLimitMS {
			out.note("feed_hi p99 %.3f ms is above the %.0f ms limit", p, feedLimitMS)
		}
	}

	checks, fails := verifyOverview(clients)
	out.check(checks, fails)
	var sessions int
	for _, c := range clients {
		out.check(c.checks, c.fails)
		sessions += c.sessions
	}
	ru, err := sp.stop()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := stageRun(cfg, streams, S/5, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	sp = nil
	if err := setUp(setupRoundsLast); err != nil {
		return nil, err
	}
	if _, err := sp.stop(); err != nil {
		return nil, err
	}
	serverCPU := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	out.metric("setup_s", median(setups), "s")
	out.note("setup_s over %d set-ups: %s s", len(setups), fmtList(setups))
	out.metric("max_rss_mb", float64(ru.Maxrss)/1024, "MB")
	out.metric("sessions_per_core_s", float64(sessions)/serverCPU, "1/s")
	out.metric("cpu_s", serverCPU/float64(sessions), "s")
	out.note("%d sessions over %d connections; server used %.3f CPU-s", sessions, workers, serverCPU)
	return out, nil
}
