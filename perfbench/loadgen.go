package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// schedule is an open-loop arrival plan: request i is due at
// start + i·interval, whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
	end      time.Time
}

func newSchedule(start time.Time, rate float64, dur time.Duration) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate), end: start.Add(dur)}
}

// due is request i's due time; ok is false once it falls past the end.
func (s schedule) due(i int64) (time.Time, bool) {
	t := s.start.Add(time.Duration(i) * s.interval)
	return t, t.Before(s.end)
}

// count is the number of requests in the plan.
func (s schedule) count() int64 {
	return int64((s.end.Sub(s.start) + s.interval - 1) / s.interval)
}

// lateness splits the delay between a request's due time and its send.
// A sender that was idle and slept until the due time but woke late is
// the generator running late (genLate). A sender still busy with an
// earlier request at the due time is backlog (queued): the system under
// test imposed that wait, and it is part of the request's latency.
func lateness(due, idleSince, sent time.Time) (genLate, queued time.Duration) {
	if !idleSince.After(due) {
		return sent.Sub(due), 0
	}
	return sent.Sub(idleSince), idleSince.Sub(due)
}

// openLoopResult is one fixed-rate step of the open loop.
type openLoopResult struct {
	Latency []float64 // ms from due time to completion, successful requests only
	GenLate []float64 // ms the generator woke past a due time
	Sent    int64
	Failed  int64
	// Backlog counts requests due within the step that had not been
	// sent by its end: a growing queue in front of the system.
	Backlog int64
}

// add folds another step's samples and counts into res.
func (res *openLoopResult) add(s openLoopResult) {
	res.Latency = append(res.Latency, s.Latency...)
	res.GenLate = append(res.GenLate, s.GenLate...)
	res.Sent += s.Sent
	res.Failed += s.Failed
	res.Backlog += s.Backlog
}

// openLoop offers rate requests per second for dur over conns senders.
// op performs one request and reports whether it succeeded; latency is
// timed from the due time, so a stall is charged to every request it
// delays. Requests still unsent at the end of the step are counted as
// backlog and never sent.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, op func(i int64) bool) openLoopResult {
	sch := newSchedule(time.Now().Add(2*time.Millisecond), rate, dur)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		res  openLoopResult
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late []float64
			var sent, failed int64
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				due, ok := sch.due(i)
				if !ok {
					break
				}
				idle := time.Now()
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if now.After(sch.end) {
					break
				}
				g, _ := lateness(due, idle, now)
				late = append(late, ms(g))
				sent++
				if op(i) {
					lat = append(lat, ms(time.Since(due)))
				} else {
					failed++
				}
			}
			mu.Lock()
			res.Latency = append(res.Latency, lat...)
			res.GenLate = append(res.GenLate, late...)
			res.Sent += sent
			res.Failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total := sch.count(); total > res.Sent {
		res.Backlog = total - res.Sent
	}
	return res
}

// closedOps keeps conns requests in flight for dur: each sender issues
// its next request as soon as the last one returns. It returns how many
// requests were sent; op counts its own failures. It measures what a
// request costs the system under test while the load keeps it busy; at
// a low open-loop rate every request also pays for waking idle CPUs.
func closedOps(ctx context.Context, dur time.Duration, conns int, op func(i int64) bool) int64 {
	end := time.Now().Add(dur)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				op(next.Add(1) - 1)
			}
		}()
	}
	wg.Wait()
	return next.Load()
}
