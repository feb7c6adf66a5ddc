package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// fleetThink is the fleet client's pause between a result and its next
// submit. A worker polls for work the moment it completes a unit; with
// no pause the next submit races that poll, and whether each job is
// claimed at once or waits a full poll period would be decided by a
// few milliseconds. The pause lets the poll land first, so most jobs
// wait for the workers' next poll: the idle wait this phase exists to
// show.
const fleetThink = 50 * time.Millisecond

// fleetAccountedMin is the least share of a traced fleet job's latency
// its measured claim wait, longest shard run and merge must explain.
const fleetAccountedMin = 0.8

// fleetSpec is the fleet phase's i-th job, alternating an 8192-rep
// fixed-count availability estimate and a reliability sweep over N
// 2..fleetSweepN × M 1..fleetSweepM at a seed-derived time; both shard
// across the workers. No spec repeats.
func fleetSpec(r *run, i int) (string, []byte) {
	if i%2 == 0 {
		seed := r.subSeed(20_000) + uint64(i)
		return "availability", []byte(fmt.Sprintf(`{"kind":"availability","router":{"n":4,"m":2},"mc":{"reps":8192,"seed":%d}}`, seed))
	}
	return "sweep", sweepSpec(r, 20_000, i, fleetSweepN, fleetSweepM)
}

const fleetSweepN, fleetSweepM = 32, 8

// fleetPhase measures the fleet and httpretry layers inside serve-cold's
// traced run: a coordinator and nproc workers built in-process with the
// fleet seams wrapped, one closed-loop client, for about dur. It runs on
// a run of its own (own spans, counters and metrics) so it cannot
// disturb serve-cold's figures, and folds back only the fleet metrics,
// the availability run time, its operation counts, checks and notes.
func fleetPhase(ctx context.Context, r *run, dur time.Duration) error {
	sub := &run{workload: "fleet", seed: r.seed, dur: dur, traced: true, root: r.root, work: filepath.Join(r.work, "fleet"),
		drad: r.drad, nproc: r.nproc, metrics: map[string]float64{}, spans: &recorder{}}
	err := fleetTraced(ctx, sub)
	for name, v := range sub.metrics {
		if strings.HasPrefix(name, "fleet.") || strings.HasPrefix(name, "httpretry.") || name == "jobs.run_ms.availability" {
			r.set(name, v)
		}
	}
	for _, l := range sub.lines {
		r.notef("fleet phase: %s", l)
	}
	r.attempted += sub.attempted
	r.failed += sub.failed
	r.problems = append(r.problems, sub.problems...)
	return err
}

// fleetTraced runs the fleet loop on an in-process coordinator and
// workers with the fleet seams wrapped, and splits each job's time into
// the wait until its last shard was claimed, the longest shard run, and
// the merge.
func fleetTraced(ctx context.Context, r *run) error {
	t, err := bootStack(r, filepath.Join(r.work, "traced"), r.nproc)
	if err != nil {
		return err
	}
	defer t.close()
	next := func(i int) (string, []byte) {
		if i > 0 {
			time.Sleep(fleetThink)
		}
		return fleetSpec(r, i)
	}
	r.measured = time.Now()
	js, elapsed := closedLoop(ctx, r, t, 1, 0, 2, r.dur/2, next)
	r.counters = t.stack.counters()
	r.timing("traced fleet submit->merged result", "ms", latenciesMs(js))
	r.notef("fleet: %d jobs in %.2fs", len(js), elapsed.Seconds())
	verify(ctx, r, js)

	byID := map[string][]span{}
	for _, s := range r.spans.all() {
		byID[s.ID] = append(byID[s.ID], s)
	}
	var waits, runs, merges, accounted []float64
	for _, j := range js {
		var start, lastClaim time.Time
		var run, merge time.Duration
		for _, s := range byID[j.id] {
			switch {
			case s.Name == "client.job":
				start = s.Start
			case s.Name == "fleet.claim" && s.Start.After(lastClaim):
				lastClaim = s.Start
			case s.Name == "fleet.merge":
				merge += s.dur()
			case len(s.Name) > 9 && s.Name[:9] == "jobs.run.":
				run = max(run, s.dur())
			}
		}
		if start.IsZero() || lastClaim.IsZero() {
			continue
		}
		w := lastClaim.Sub(start)
		waits = append(waits, ms(w))
		runs = append(runs, ms(run))
		merges = append(merges, ms(merge))
		accounted = append(accounted, ratio(ms(w+run+merge), ms(j.latency)))
	}
	r.set("fleet.claim_wait_ms", r.timing("fleet.claim_wait", "ms", waits).Median)
	r.set("fleet.merge_ms", r.timing("fleet.merge", "ms", merges).Median)
	r.timing("fleet shard run (longest)", "ms", runs)
	acc := r.timing("fleet accounted share", "ratio", accounted).Median
	if acc < fleetAccountedMin {
		r.problem("fleet: claim wait, longest shard run and merge explain %.2f of the job latency, below %.2f", acc, fleetAccountedMin)
	}
	runSpans(r, len(js), gridCells(fleetSweepN, fleetSweepM))

	fc := &t.stack.fc
	fc.mu.Lock()
	defer fc.mu.Unlock()
	r.set("fleet.claim_useful_ratio", ratio(float64(fc.claims), float64(fc.polls)))
	r.set("fleet.shards_per_job", summarize(fc.shards).Median)
	r.set("fleet.complete_bytes", summarize(fc.completeSize).Median)
	r.set("fleet.requeues", float64(fc.requeues))
	r.set("httpretry.retries", float64(fc.retries))
	r.notef("fleet: %d claim polls, %d carried work, %d completions, %d retries, %d requeues",
		fc.polls, fc.claims, len(fc.completeSize), fc.retries, fc.requeues)
	return nil
}
