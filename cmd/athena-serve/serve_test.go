package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"athena/internal/obs"
	"athena/internal/session"
)

// TestLoadgenEndToEndSharded runs the full load-generator path against
// an in-process server with a sharded multi-cell source topology: every
// replicated session's streamed attribution must digest-match the
// offline batch correlation of the same feed, over real HTTP.
func TestLoadgenEndToEndSharded(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	p := loadgenParams{
		Sessions: 6,
		UEs:      3,
		Cells:    2,
		Duration: 2 * time.Second,
		Tick:     100 * time.Millisecond,
		Seed:     1,
		Workers:  4,
		Out:      out,
	}
	rep, err := runLoadgen(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InProcess {
		t.Fatal("expected an in-process server")
	}
	if rep.Streams != 3 {
		t.Fatalf("tapped %d streams, want 3", rep.Streams)
	}
	if rep.DigestMatches != p.Sessions {
		t.Fatalf("digest matches %d, want %d", rep.DigestMatches, p.Sessions)
	}
	if rep.Records == 0 || rep.Batches == 0 || rep.ClientPostP99NS == 0 {
		t.Fatalf("empty measurement: %+v", rep)
	}
	// Fleet verification ran against the in-process server: overview
	// totals matched the session sums exactly, the Prometheus exposition
	// linted, and every created session's close event was seen.
	if !rep.OverviewExactNS || rep.OverviewPackets == 0 {
		t.Fatalf("overview verification did not run: %+v", rep)
	}
	if rep.PromFamilies == 0 {
		t.Fatal("no Prometheus families scraped")
	}
	if rep.EventsCreateSeen != int64(p.Sessions) || rep.EventsCloseSeen != int64(p.Sessions) {
		t.Fatalf("event stream saw %d/%d create/close for %d sessions",
			rep.EventsCreateSeen, rep.EventsCloseSeen, p.Sessions)
	}

	enc, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk serveReport
	if err := json.Unmarshal(enc, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.GOMAXPROCS <= 0 || onDisk.CPUs <= 0 {
		t.Fatalf("report missing core counts: %+v", onDisk)
	}
	if onDisk.SessionsPerCoreSec <= 0 {
		t.Fatalf("no throughput recorded: %+v", onDisk)
	}
}

// TestLoadgenMixedWorkloads replays a mixed-workload source topology —
// one UE per app family — through the service: SessionStreams and the
// streamed-vs-offline digest check are workload-agnostic, so every
// family's session must verify over real HTTP exactly like VCA.
//
// The seed-4 two-cell case has bulk-transfer packets that reach the core
// more than the correlator's default 500 ms flush horizon after they are
// sent; each session's horizon must cover its own stream's worst delay
// or those packets stream out as lost.
func TestLoadgenMixedWorkloads(t *testing.T) {
	for _, p := range []loadgenParams{
		{Sessions: 4, UEs: 4, Seed: 1},
		{Sessions: 8, UEs: 8, Cells: 2, Seed: 4},
	} {
		p.Workloads = "mixed"
		p.Duration = 2 * time.Second
		p.Tick = 100 * time.Millisecond
		p.Workers = 2
		rep, err := runLoadgen(p)
		if err != nil {
			t.Fatalf("%d UEs / %d cells, seed %d: %v", p.UEs, p.Cells, p.Seed, err)
		}
		if rep.Streams != p.UEs {
			t.Fatalf("tapped %d streams, want %d", rep.Streams, p.UEs)
		}
		if rep.Workloads != "mixed" {
			t.Fatalf("report workloads %q, want mixed", rep.Workloads)
		}
		if rep.DigestMatches != p.Sessions {
			t.Fatalf("digest matches %d, want %d", rep.DigestMatches, p.Sessions)
		}
	}

	if _, err := buildWork(loadgenParams{UEs: 1, Workloads: "bogus", Duration: time.Second, Tick: time.Second}); err == nil {
		t.Fatal("unknown -workloads value must be rejected")
	}
}

// TestLoadgenDetectsCorruption pins the nonzero-exit contract: a feed
// that violates the session's stream order must fail the run, not pass
// silently.
func TestLoadgenDetectsCorruption(t *testing.T) {
	p := loadgenParams{Sessions: 1, UEs: 1, Duration: time.Second, Tick: 50 * time.Millisecond, Seed: 1}
	work, err := buildWork(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(work[0].chunks) < 2 {
		t.Fatal("need at least two chunks")
	}
	// Swap the first two chunks: sender records now arrive out of order.
	work[0].chunks[0], work[0].chunks[1] = work[0].chunks[1], work[0].chunks[0]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: session.NewRegistry().Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	var lat []int64
	_, err = runSession(http.DefaultClient, "http://"+ln.Addr().String(), "corrupt", &work[0], &lat)
	if err == nil {
		t.Fatal("out-of-order replay passed verification")
	}
}

// TestSessionDigestsUnchangedByFleetObservability pins digest
// neutrality: the same session stream produces bit-identical attribution
// digests whether it feeds a bare registry or one with rollups, a live
// event log, metrics collection, and an aggressive anomaly bound all
// enabled. Observability must observe, never perturb.
func TestSessionDigestsUnchangedByFleetObservability(t *testing.T) {
	work, err := buildWork(loadgenParams{
		Sessions: 1, UEs: 2, Cells: 2, Duration: 2 * time.Second,
		Tick: 100 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(reg *session.Registry) []session.Status {
		t.Helper()
		var out []session.Status
		for _, sw := range work {
			cfg := sw.cfg
			cfg.ID = "n-" + sw.id
			s, err := reg.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range sw.chunks {
				var b session.Batch
				if err := json.Unmarshal(enc, &b); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Feed(&b); err != nil {
					t.Fatal(err)
				}
			}
			st, err := reg.Close(cfg.ID)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}

	bare := run(session.NewRegistry())

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetAll()
	}()
	instrumented := session.NewRegistry()
	instrumented.Events = obs.NewEventLog(256)
	// A 1 ns bound guarantees the anomaly path actually fires on any
	// stream with HARQ-attributed delay.
	instrumented.AnomalyHARQP99 = 1
	instr := run(instrumented)

	if len(bare) != len(instr) || len(bare) == 0 {
		t.Fatalf("session counts diverge: %d vs %d", len(bare), len(instr))
	}
	for i := range bare {
		if bare[i].Digest != instr[i].Digest {
			t.Fatalf("session %s: digest %s (bare) != %s (instrumented)",
				bare[i].ID, bare[i].Digest, instr[i].Digest)
		}
		if bare[i].DigestViews != instr[i].DigestViews {
			t.Fatalf("session %s: %d vs %d digested views", bare[i].ID, bare[i].DigestViews, instr[i].DigestViews)
		}
		if bare[i].Attribution.Packets == 0 {
			t.Fatalf("session %s attributed nothing; neutrality check is vacuous", bare[i].ID)
		}
	}

	// The instrumented run must actually have observed something, or the
	// comparison proves nothing.
	st := instrumented.Events.Stats()
	if st.Emitted == 0 {
		t.Fatal("instrumented run emitted no events")
	}
	evs, _, _ := instrumented.Events.Since(0, 0)
	var sawAnomaly bool
	for _, e := range evs {
		if e.Type == "session.anomaly" {
			sawAnomaly = true
		}
	}
	if !sawAnomaly {
		t.Fatal("1ns anomaly bound never fired; the anomaly path went unexercised")
	}
	if ov := instrumented.Overview(); ov.Packets == 0 {
		t.Fatal("instrumented rollup folded nothing")
	}
}

// TestServeGracefulDrain exercises the server's shutdown path: cancel
// the serve context while a session still has pending packets and the
// server must flush it through the horizon before exiting.
func TestServeGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := session.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var drained int
	var serveErr error
	go func() {
		defer close(done)
		drained, serveErr = serve(ctx, ln, reg)
	}()
	target := "http://" + ln.Addr().String()

	// Wait for the listener to answer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := doJSON(http.DefaultClient, "GET", target+"/healthz", nil, http.StatusOK, nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One session with records but no clock advance: everything pending.
	work, err := buildWork(loadgenParams{Sessions: 1, UEs: 1, Duration: time.Second, Tick: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := work[0].cfg
	cfg.ID = "draintest"
	if err := doJSON(http.DefaultClient, "POST", target+"/v1/sessions", mustEncode(cfg), http.StatusCreated, nil); err != nil {
		t.Fatal(err)
	}
	var ch struct {
		Sender json.RawMessage `json:"sender"`
		Core   json.RawMessage `json:"core"`
	}
	if err := json.Unmarshal(work[0].chunks[0], &ch); err != nil {
		t.Fatal(err)
	}
	var fr session.FeedResponse
	if err := doJSON(http.DefaultClient, "POST", target+"/v1/sessions/draintest/records",
		mustEncode(map[string]json.RawMessage{"sender": ch.Sender, "core": ch.Core}),
		http.StatusOK, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Feed.Pending == 0 {
		t.Fatal("expected pending packets before shutdown")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if drained != 1 {
		t.Fatalf("drained %d sessions, want 1", drained)
	}
}

// TestServeDropsStalledHeaderClient pins the slow-client bound: a raw
// TCP client that sends half a request header and then stalls must be
// disconnected once readHeaderTimeout passes, instead of holding its
// connection open forever.
func TestServeDropsStalledHeaderClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := serve(ctx, ln, session.NewRegistry()); err != nil {
			t.Error(err)
		}
	}()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: athena\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout (%v)", waited, readHeaderTimeout)
	}
}
