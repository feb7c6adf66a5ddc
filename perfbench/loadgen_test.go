package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 100, time.Second) // one every 10ms
	if d, ok := s.due(0); !ok || !d.Equal(start) {
		t.Errorf("due(0) = %v %v", d, ok)
	}
	if d, ok := s.due(7); !ok || !d.Equal(start.Add(70*time.Millisecond)) {
		t.Errorf("due(7) = %v %v", d, ok)
	}
	if _, ok := s.due(100); ok {
		t.Error("request 100 falls at the end and must not be due")
	}
	if n := s.count(); n != 100 {
		t.Errorf("count %d, want 100", n)
	}
}

func TestLatenessSplitsGeneratorFromBacklog(t *testing.T) {
	due := time.Unix(1000, 0)
	// Idle sender that woke 2ms late: all generator lateness.
	g, q := lateness(due, due.Add(-5*time.Millisecond), due.Add(2*time.Millisecond))
	if g != 2*time.Millisecond || q != 0 {
		t.Errorf("idle sender: gen %v queued %v", g, q)
	}
	// Sender busy until 30ms past due, then sent 1ms later: 30ms of
	// backlog, 1ms the generator's own.
	g, q = lateness(due, due.Add(30*time.Millisecond), due.Add(31*time.Millisecond))
	if g != time.Millisecond || q != 30*time.Millisecond {
		t.Errorf("busy sender: gen %v queued %v", g, q)
	}
}

func TestOpenLoopTimesFromDueAndCountsBacklog(t *testing.T) {
	// One sender, requests due every 5ms, each taking 20ms: the loop
	// falls behind, latency grows from the due time, and requests it
	// never reached are backlog, not sent.
	var calls atomic.Int64
	res := openLoop(context.Background(), 200, 200*time.Millisecond, 1, func(int64) bool {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return true
	})
	if res.Sent != calls.Load() || res.Sent == 0 {
		t.Fatalf("sent %d, calls %d", res.Sent, calls.Load())
	}
	if res.Sent+res.Backlog != 40 {
		t.Errorf("sent %d + backlog %d, want the 40 planned", res.Sent, res.Backlog)
	}
	if res.Backlog < 20 {
		t.Errorf("backlog %d: a 4x overloaded loop must fall behind", res.Backlog)
	}
	last := res.Latency[len(res.Latency)-1]
	if last < 60 {
		t.Errorf("last latency %.1fms: latency must be timed from the due time and grow", last)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	res := openLoop(context.Background(), 500, 50*time.Millisecond, 2, func(i int64) bool { return i%2 == 0 })
	if res.Failed == 0 || int64(len(res.Latency))+res.Failed != res.Sent {
		t.Errorf("sent %d, ok %d, failed %d", res.Sent, len(res.Latency), res.Failed)
	}
}
