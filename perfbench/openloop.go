package main

import (
	"container/heap"
	"math"
	"time"
)

// dueOp is one scheduled request of a load generator. run performs it
// and returns the operations it schedules in turn, such as a session's
// next batch. kind names the latency stream the op is timed into; ops
// with an empty kind are not timed.
type dueOp struct {
	due  time.Time
	kind string
	run  func() ([]dueOp, error)
	seq  uint64
}

// loopStats is what one schedule recorded.
type loopStats struct {
	// lat holds each timed op's latency in ms, from the moment it was
	// due to its completion, by kind. A failed op is +Inf: it counts as
	// above any latency limit.
	lat map[string][]float64
	// lateMS is how long after its due time each op started.
	lateMS []float64
	// backlogMax is the most ops that were due but not started at once,
	// counting the one starting.
	backlogMax int
}

func newLoopStats() *loopStats { return &loopStats{lat: map[string][]float64{}} }

// merge folds another schedule's statistics into s.
func (s *loopStats) merge(o *loopStats) {
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	s.lateMS = append(s.lateMS, o.lateMS...)
	if o.backlogMax > s.backlogMax {
		s.backlogMax = o.backlogMax
	}
}

// runSchedule executes ops and everything they schedule, in due order, on
// the calling goroutine, as one open-loop client connection does: it
// waits for each op's due time but never for the server beyond the op in
// progress, so a stall delays every op due behind it and the delay shows
// in their latencies. It returns when no op is left.
func runSchedule(ops []dueOp) *loopStats {
	st := newLoopStats()
	q := &opQueue{}
	var seq uint64
	push := func(op dueOp) {
		seq++
		op.seq = seq
		heap.Push(q, op)
	}
	for _, op := range ops {
		push(op)
	}
	for q.Len() > 0 {
		op := heap.Pop(q).(dueOp)
		if wait := time.Until(op.due); wait > 0 {
			time.Sleep(wait)
		}
		start := time.Now()
		backlog := 1
		for _, o := range *q {
			if !o.due.After(start) {
				backlog++
			}
		}
		if backlog > st.backlogMax {
			st.backlogMax = backlog
		}
		st.lateMS = append(st.lateMS, msSince(op.due, start))
		next, err := op.run()
		if op.kind != "" {
			lat := msSince(op.due, time.Now())
			if err != nil {
				lat = math.Inf(1)
			}
			st.lat[op.kind] = append(st.lat[op.kind], lat)
		}
		for _, n := range next {
			push(n)
		}
	}
	return st
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

// opQueue is a min-heap of ops by due time, then scheduling order.
type opQueue []dueOp

func (q opQueue) Len() int { return len(q) }
func (q opQueue) Less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}
func (q opQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *opQueue) Push(x any)   { *q = append(*q, x.(dueOp)) }
func (q *opQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
