package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The event-queue wall: the kernel's binary heap must produce the same pop
// sequence as a sorted-slice oracle for the same op script. The oracle is
// too slow for production (O(n) insert) but obviously correct, so any
// divergence is a heap bug. The scripts here (randomized, exact-tie
// storms, in-loop insertions, bulk retargets) and FuzzScheduler
// (adversarial byte scripts) drive both.

// popRec is one observed pop, keyed exactly as the queue orders.
type popRec struct {
	at  Time
	seq uint64
}

// eventQueue is the operation set a script drives; eventHeap and
// sortedQueue both provide it.
type eventQueue interface {
	Push(e *Event)
	Pop() *Event
	Remove(e *Event) bool
	Update(e *Event)
	Rebuild()
	Len() int
}

// sortedQueue is the test oracle: a slice kept sorted by (at, seq).
// Update and Rebuild re-sort the whole slice, so a key change can never
// be missed. It orders with its own comparison rather than the heap's
// before, so a bug there cannot hide in both.
type sortedQueue struct {
	es []*Event
}

func oracleLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *sortedQueue) Len() int { return len(q.es) }

func (q *sortedQueue) Push(e *Event) {
	i := sort.Search(len(q.es), func(i int) bool { return oracleLess(e, q.es[i]) })
	q.es = append(q.es, nil)
	copy(q.es[i+1:], q.es[i:])
	q.es[i] = e
}

func (q *sortedQueue) Pop() *Event {
	if len(q.es) == 0 {
		return nil
	}
	e := q.es[0]
	q.es = q.es[1:]
	return e
}

func (q *sortedQueue) Remove(e *Event) bool {
	for i, x := range q.es {
		if x == e {
			q.es = append(q.es[:i], q.es[i+1:]...)
			return true
		}
	}
	return false
}

func (q *sortedQueue) Update(*Event) { q.Rebuild() }

func (q *sortedQueue) Rebuild() {
	sort.Slice(q.es, func(i, j int) bool { return oracleLess(q.es[i], q.es[j]) })
}

// scriptOp is one decoded operation of a queue script. Times are deltas
// from the simulated "now" (the at of the last popped event), which keeps
// the script inside the kernel's contract: events are never pushed into
// the past.
type scriptOp struct {
	kind  byte // 0 push, 1 pop, 2 remove, 3 update, 4 retarget all + rebuild
	delta Time
	idx   int // live-set index for remove/update
}

// runScript drives q through the ops and returns the full pop order,
// draining the queue at the end. The live set is maintained identically
// for every queue given the same script, so divergence shows up as a
// differing pop sequence rather than a different interpretation.
func runScript(q eventQueue, ops []scriptOp) []popRec {
	var out []popRec
	var live []*Event
	var seq uint64
	var now Time
	pop := func() {
		e := q.Pop()
		if e == nil {
			return
		}
		now = e.at
		out = append(out, popRec{e.at, e.seq})
		for i, l := range live {
			if l == e {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			seq++
			e := &Event{at: now + op.delta, seq: seq}
			q.Push(e)
			live = append(live, e)
		case 1:
			pop()
		case 2:
			if len(live) > 0 {
				i := op.idx % len(live)
				e := live[i]
				if !q.Remove(e) {
					panic("live event not removable")
				}
				live = append(live[:i], live[i+1:]...)
			}
		case 3:
			if len(live) > 0 {
				e := live[op.idx%len(live)]
				seq++
				e.at, e.seq = now+op.delta, seq
				q.Update(e)
			}
		case 4:
			// The RescheduleLazy/Commit shape: rekey every live event
			// in place, then restore order once.
			for i, e := range live {
				seq++
				e.at, e.seq = now+op.delta*Time(len(live)-i), seq
			}
			q.Rebuild()
		}
	}
	for q.Len() > 0 {
		pop()
	}
	return out
}

// genScript produces a random op script. tieDenom quantizes times so exact
// ties occur frequently; spread sets the time scale.
func genScript(rng *rand.Rand, n int, tieDenom float64, spread float64) []scriptOp {
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		delta := Time(float64(rng.Intn(int(tieDenom))) / tieDenom * spread)
		switch r := rng.Float64(); {
		case r < 0.55:
			ops = append(ops, scriptOp{kind: 0, delta: delta})
		case r < 0.75:
			ops = append(ops, scriptOp{kind: 1})
		case r < 0.87:
			ops = append(ops, scriptOp{kind: 2, idx: rng.Intn(1 << 16)})
		default:
			ops = append(ops, scriptOp{kind: 3, delta: delta, idx: rng.Intn(1 << 16)})
		}
	}
	return ops
}

// assertSameOrder runs ops on a heap and on the oracle and requires
// pop-for-pop agreement.
func assertSameOrder(t *testing.T, ops []scriptOp, name string) {
	t.Helper()
	want := runScript(&sortedQueue{}, ops)
	got := runScript(&eventHeap{}, ops)
	if len(want) != len(got) {
		t.Fatalf("%s: heap popped %d events, oracle popped %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: heap diverges from oracle at pop %d: got (%v, %d), want (%v, %d)",
				name, i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
}

// TestSchedulerEquivalenceRandomScripts drives the heap with randomized
// scripts across several time scales and requires pop-for-pop agreement
// with the oracle.
func TestSchedulerEquivalenceRandomScripts(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, spread := range []float64{1e-6, 1.0, 1e6} {
			rng := rand.New(rand.NewSource(seed))
			ops := genScript(rng, 600, 64, spread)
			assertSameOrder(t, ops, fmt.Sprintf("seed=%d,spread=%g", seed, spread))
		}
	}
}

// TestSchedulerEquivalenceAllTies floods the queue with events at the very
// same timestamp: order must degrade to pure FIFO (seq order).
func TestSchedulerEquivalenceAllTies(t *testing.T) {
	ops := make([]scriptOp, 0, 600)
	for i := 0; i < 400; i++ {
		ops = append(ops, scriptOp{kind: 0, delta: 42})
	}
	for i := 0; i < 200; i++ {
		ops = append(ops, scriptOp{kind: 1})
	}
	for i, r := range runScript(&eventHeap{}, ops) {
		if r.seq != uint64(i+1) {
			t.Fatalf("tie order is not FIFO: pop %d has seq %d", i, r.seq)
		}
	}
	assertSameOrder(t, ops, "all-ties")
}

// TestSchedulerEquivalenceInLoopInsertions interleaves pops with pushes of
// times at and around the current minimum — the self-rescheduling pattern
// every kernel workload produces.
func TestSchedulerEquivalenceInLoopInsertions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := make([]scriptOp, 0, 3000)
	for i := 0; i < 1000; i++ {
		// Push two near-future events, pop one: the population grows
		// while the head keeps advancing.
		ops = append(ops,
			scriptOp{kind: 0, delta: Time(rng.Float64())},
			scriptOp{kind: 0, delta: Time(rng.Float64() * 0.01)},
			scriptOp{kind: 1})
	}
	assertSameOrder(t, ops, "in-loop")
}

// TestSchedulerEquivalenceBulkRetarget interleaves whole-population
// retargets followed by one Rebuild — the fault injector's
// RescheduleLazy/Commit busy-period biasing — with pushes and pops.
func TestSchedulerEquivalenceBulkRetarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := make([]scriptOp, 0, 2000)
	for i := 0; i < 400; i++ {
		ops = append(ops,
			scriptOp{kind: 0, delta: Time(rng.Intn(16))},
			scriptOp{kind: 0, delta: Time(rng.Float64() * 8)})
		switch i % 5 {
		case 0:
			ops = append(ops, scriptOp{kind: 4, delta: Time(rng.Float64())})
		case 1:
			ops = append(ops, scriptOp{kind: 4, delta: 0}) // every key ties on time
		default:
			ops = append(ops, scriptOp{kind: 1})
		}
	}
	assertSameOrder(t, ops, "bulk-retarget")
}
