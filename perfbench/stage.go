package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/session"
)

// Request headers linking a client request to the handler that served
// it: its span, for the trace, and its sequence number, for the
// rtt-minus-handler transport time.
const (
	spanHeader = "X-Perfbench-Span"
	seqHeader  = "X-Perfbench-Seq"
)

// handlerTimer is benchmark middleware around session.Registry.Handler:
// it times each request's handler and records it as a span under the
// client's request span.
type handlerTimer struct {
	next   http.Handler
	tracer *obs.Tracer

	mu    sync.Mutex
	bySeq map[uint64]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	sp := h.tracer.Begin("http.handler", obs.SpanID(parent))
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	sp.End()
	if seq, err := strconv.ParseUint(r.Header.Get(seqHeader), 10, 64); err == nil {
		h.mu.Lock()
		h.bySeq[seq] = d
		h.mu.Unlock()
	}
}

// stageTimes are the per-stage samples of a stage run, in microseconds.
type stageTimes struct {
	rtt, handler, transport  []float64
	decode, feed, ingest     []float64
	digestUS                 float64 // ViewHasher.Add time, summed
	batches                  int
	overview, prometheus     []float64
	feedMallocs, feedBatches uint64
}

// stageRun is the serve workload's traced, in-process view: the same
// batches go through a session registry with the service's production
// settings behind an in-process HTTP server, under a CPU profile, for
// budget. Each layer the request path crosses is then timed on its own
// with the same batches: the JSON decode (codec), Session.Feed (session),
// the live correlator and the digest (core), the fleet overview
// (session) and the Prometheus exposition (obs).
func stageRun(cfg runConfig, streams []stream, budget time.Duration, out *outcome) error {
	obs.Enable()
	reg := session.NewRegistry()
	reg.Events = obs.NewEventLog(obs.DefaultEventBuffer)
	reg.AnomalyHARQP99 = 50 * time.Millisecond
	tracer := obs.NewTracer()
	ht := &handlerTimer{next: reg.Handler(), tracer: tracer, bySeq: map[uint64]time.Duration{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: ht}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stopServer := func() error {
		err := srv.Close()
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return err
	}
	c := newClient("http://"+ln.Addr().String(), streams)

	var st stageTimes
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		_ = stopServer() // the profile error is the one to report
		return err
	}
	var seq uint64
	deadline := time.Now().Add(budget)
	for n := 0; n < len(streams) || time.Now().Before(deadline); n++ {
		s := &streams[n%len(streams)]
		id := fmt.Sprintf("stage-%d-%s", n, s.id)
		root := tracer.Begin("session "+id, 0)
		scfg := s.cfg
		scfg.ID = id
		body, _ := json.Marshal(scfg)
		c.checks++
		if err := c.call(root, "POST", "/v1/sessions", body, http.StatusCreated, nil); err != nil {
			c.fail("%v", err)
			root.End()
			continue
		}
		for _, chunk := range s.chunks {
			seq++
			rtt, err := c.timedFeed(root, id, chunk, seq)
			c.checks++
			if err != nil {
				c.fail("%v", err)
				continue
			}
			st.rtt = append(st.rtt, us(rtt))
			ht.mu.Lock()
			h := ht.bySeq[seq]
			ht.mu.Unlock()
			st.handler = append(st.handler, us(h))
			st.transport = append(st.transport, us(rtt-h))
		}
		// Read-path costs, sampled with this session still live.
		sp := root.Child("session.Registry.Overview")
		t0 := time.Now()
		reg.Overview()
		st.overview = append(st.overview, us(time.Since(t0)))
		sp.End()
		sp = root.Child("obs.WritePrometheus")
		t0 = time.Now()
		err := obs.WritePrometheus(io.Discard)
		st.prometheus = append(st.prometheus, us(time.Since(t0)))
		sp.End()
		if err != nil {
			c.fail("prometheus exposition: %v", err)
		}
		var status session.Status
		if err := c.call(root, "GET", "/v1/sessions/"+id+"/attribution", nil, http.StatusOK, &status); err != nil {
			c.checks++
			c.fail("%v", err)
		} else {
			c.verify(status, s)
		}
		c.checks++
		if err := c.call(root, "DELETE", "/v1/sessions/"+id, nil, http.StatusOK, &status); err != nil {
			c.fail("%v", err)
		} else {
			c.closed(status, s)
		}
		root.End()
		stageLayers(tracer, s, &st, c)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	checks, fails := verifyOverview([]*client{c})
	out.check(checks, fails)
	out.check(c.checks, c.fails)
	if err := stopServer(); err != nil {
		return err
	}

	base := filepath.Join(cfg.outDir, fmt.Sprintf("serve-seed%d", cfg.seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return err
	}
	cpu, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	for l, s := range cpu {
		out.layer(l+".cpu_s", s)
	}
	out.layer("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	out.layer("go.mallocs", float64(after.Mallocs-before.Mallocs))
	out.layer("go.gc_cycles", float64(after.NumGC-before.NumGC))
	out.layer("http.rtt_p50_us", percentile(st.rtt, 50))
	out.layer("http.rtt_p99_us", percentile(st.rtt, 99))
	out.layer("http.handler_p50_us", percentile(st.handler, 50))
	out.layer("http.handler_p99_us", percentile(st.handler, 99))
	out.layer("http.transport_p50_us", percentile(st.transport, 50))
	out.layer("codec.decode_p50_us", percentile(st.decode, 50))
	out.layer("session.feed_p50_us", percentile(st.feed, 50))
	out.layer("session.feed_p99_us", percentile(st.feed, 99))
	out.layer("core.ingest_p50_us", percentile(st.ingest, 50))
	out.layer("core.digest_us_per_batch", st.digestUS/float64(st.batches))
	out.layer("session.allocs_per_batch", float64(st.feedMallocs)/float64(st.feedBatches))
	out.layer("session.overview_us", percentile(st.overview, 50))
	out.layer("obs.prometheus_us", percentile(st.prometheus, 50))
	out.note("stage run: %d batches over HTTP, %d sessions; http rtt p%g supported", len(st.rtt), c.sessions, tailPercentile(len(st.rtt)))
	return tracer.WriteChromeTraceFile(base + ".trace.json")
}

// timedFeed posts one batch, tagged so the handler timer can match it,
// and returns its round-trip time.
func (c *client) timedFeed(parent obs.Span, id string, chunk []byte, seq uint64) (time.Duration, error) {
	sp := parent.Child("http.rtt POST records")
	defer sp.End()
	req, err := http.NewRequest("POST", c.base+"/v1/sessions/"+id+"/records", bytes.NewReader(chunk))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(spanHeader, strconv.FormatUint(uint64(sp.ID()), 10))
	req.Header.Set(seqHeader, strconv.FormatUint(seq, 10))
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("feed %s: status %d", id, resp.StatusCode)
	}
	return rtt, err
}

// stageLayers times one stream's batches through each layer on its own:
// the JSON decode into session.Batch, Session.Feed on a private
// registry, and core.NewLive's ingest with the digest's ViewHasher.Add
// timed apart. The live correlator's digest must equal the offline one.
func stageLayers(tracer *obs.Tracer, s *stream, st *stageTimes, c *client) {
	root := tracer.Begin("stages "+s.id, 0)
	defer root.End()
	batches := make([]session.Batch, len(s.chunks))
	for i, chunk := range s.chunks {
		sp := root.Child("codec.decode")
		t0 := time.Now()
		err := json.NewDecoder(bytes.NewReader(chunk)).Decode(&batches[i])
		st.decode = append(st.decode, us(time.Since(t0)))
		sp.End()
		c.checks++
		if err != nil {
			c.fail("decode %s batch %d: %v", s.id, i, err)
			return
		}
	}

	reg := session.NewRegistry()
	cfg := s.cfg
	cfg.ID = "stage-" + s.id
	sess, err := reg.Create(cfg)
	c.checks++
	if err != nil {
		c.fail("create %s: %v", cfg.ID, err)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range batches {
		sp := root.Child("session.Session.Feed")
		t0 := time.Now()
		_, err := sess.Feed(&batches[i])
		st.feed = append(st.feed, us(time.Since(t0)))
		sp.End()
		if err != nil {
			c.checks++
			c.fail("feed %s batch %d: %v", s.id, i, err)
		}
	}
	runtime.ReadMemStats(&m1)
	st.feedMallocs += m1.Mallocs - m0.Mallocs
	st.feedBatches += uint64(len(batches))
	if _, err := reg.Close(cfg.ID); err != nil {
		c.fail("close %s: %v", cfg.ID, err)
	}

	vh := core.NewViewHasher()
	var hashed time.Duration
	lc := core.NewLive(s.cfg.Input, func(v core.PacketView) {
		t0 := time.Now()
		vh.Add(v)
		hashed += time.Since(t0)
	})
	if s.cfg.FlushAfter > 0 {
		lc.FlushAfter = s.cfg.FlushAfter
	}
	for i := range batches {
		b := &batches[i]
		sp := root.Child("core.LiveCorrelator")
		h0 := hashed
		t0 := time.Now()
		err := ingest(lc, b)
		d := time.Since(t0)
		sp.End()
		st.ingest = append(st.ingest, us(d-(hashed-h0)))
		st.digestUS += us(hashed - h0)
		st.batches++
		if err != nil {
			c.checks++
			c.fail("ingest %s batch %d: %v", s.id, i, err)
			return
		}
	}
	c.checks++
	if got := vh.Sum(); got != s.digest {
		c.fail("live correlator digest %.16s for %s, offline %.16s", got, s.id, s.digest)
	}
}

// ingest applies one batch to a live correlator the way Session.Feed
// does: sender, core and TB records in order, then the clock advance.
func ingest(lc *core.LiveCorrelator, b *session.Batch) error {
	for i := range b.Sender {
		if err := lc.OnSenderRecord(b.Sender[i]); err != nil {
			return err
		}
	}
	for i := range b.Core {
		if err := lc.OnCoreRecord(b.Core[i]); err != nil {
			return err
		}
	}
	for i := range b.TBs {
		if err := lc.OnTB(b.TBs[i]); err != nil {
			return err
		}
	}
	if b.AdvanceTo > 0 {
		return lc.Advance(b.AdvanceTo)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
