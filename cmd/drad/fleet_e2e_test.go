// End-to-end test of the fleet: a real coordinator and two real worker
// processes, with one worker SIGKILLed mid-job — the lease expires, the
// coordinator requeues the lost shard, the survivor redoes it, and the
// merged result must be byte-identical to an uninterrupted standalone
// control. That is the tentpole dependability claim: a worker crash is
// absorbed, not observable in the output.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobs"
)

// bootDrad starts a prepared drad command and parses the bound address
// off its serving banner (same contract startDrad relies on).
func bootDrad(t *testing.T, cmd *exec.Cmd) *dradProc {
	t.Helper()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting drad: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatalf("drad produced no startup line")
	}
	m := addrRe.FindStringSubmatch(sc.Text())
	if m == nil {
		cmd.Process.Kill()
		t.Fatalf("no address in startup line %q", sc.Text())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return &dradProc{cmd: cmd, base: "http://" + m[1]}
}

// startCoordinatorProc boots drad -role coordinator on a free port with
// a short lease TTL so failover happens in test time, not operator time.
func startCoordinatorProc(t *testing.T, bin, stateDir string) *dradProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-role", "coordinator",
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-lease-ttl", "1500ms")
	return bootDrad(t, cmd)
}

// startWorkerProc boots drad -role worker pointed at the coordinator.
func startWorkerProc(t *testing.T, bin, base, id, stateDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-role", "worker",
		"-coordinator", base,
		"-worker-id", id,
		"-state-dir", stateDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker %s: %v", id, err)
	}
	return cmd
}

// fleetStatusDoc mirrors the /v1/fleet fields this test reads.
type fleetStatusDoc struct {
	WorkersLive int  `json:"workers_live"`
	Degraded    bool `json:"degraded"`
	Leases      []struct {
		Worker string `json:"worker"`
		Job    string `json:"job"`
	} `json:"leases"`
	Expirations uint64 `json:"lease_expirations"`
	Requeues    uint64 `json:"requeues"`
}

func fleetStatus(t *testing.T, p *dradProc, dractl string) fleetStatusDoc {
	t.Helper()
	var st fleetStatusDoc
	out := p.run(t, dractl, "fleet")
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("decoding fleet status %q: %v", out, err)
	}
	return st
}

// The mid-kill Monte-Carlo spec: a fixed-count rare-event job heavy
// enough (~seconds) that a SIGKILL lands while shards are leased.
const fleetMCSpec = `{"kind": "rareevent",
 "router": {"n": 4, "m": 2},
 "mc": {"reps": 192, "seed": 23, "delta": 0.4, "cycles_per_rep": 1000, "workers": 1}}`

func TestFleetKillWorkerE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries")
	}
	dradBin, dractlBin := buildBinaries(t)

	coordDir := filepath.Join(t.TempDir(), "coord")
	coord := startCoordinatorProc(t, dradBin, coordDir)
	defer coord.cmd.Process.Kill()

	workerDirs := t.TempDir()
	workers := map[string]*exec.Cmd{
		"e2e-w0": startWorkerProc(t, dradBin, coord.base, "e2e-w0", filepath.Join(workerDirs, "w0")),
		"e2e-w1": startWorkerProc(t, dradBin, coord.base, "e2e-w1", filepath.Join(workerDirs, "w1")),
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()

	// Degraded before any worker registers is still serving (202s), then
	// both workers come up.
	waitFor(t, 15*time.Second, "both workers to register", func() bool {
		return fleetStatus(t, coord, dractlBin).WorkersLive == 2
	})

	spec := writeSpec(t, "fleet-mc.json", fleetMCSpec)
	snap := snapshotOf(t, coord.run(t, dractlBin, "submit", spec))

	// Wait until some worker actually holds a lease on the job, then
	// SIGKILL that worker — no drain, no goodbye, lease simply goes
	// silent and must expire.
	var victim string
	waitFor(t, 30*time.Second, "a worker to lease the job", func() bool {
		for _, l := range fleetStatus(t, coord, dractlBin).Leases {
			if l.Job == snap.ID {
				victim = l.Worker
				return true
			}
		}
		return false
	})
	w, ok := workers[victim]
	if !ok {
		t.Fatalf("lease held by unknown worker %q", victim)
	}
	if err := w.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	w.Wait()
	t.Logf("SIGKILLed %s mid-job", victim)

	// The survivor absorbs the loss: job completes despite the crash.
	var final jobs.Snapshot
	waitFor(t, 120*time.Second, "job to finish after the kill", func() bool {
		final = snapshotOf(t, coord.run(t, dractlBin, "status", snap.ID))
		return final.State == jobs.StateDone || final.State == jobs.StateFailed
	})
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s after worker kill: %s", final.State, final.Error)
	}
	merged := coord.run(t, dractlBin, "result", snap.ID)

	// The failover must have actually happened — a kill that landed
	// between shards would not prove recovery.
	st := fleetStatus(t, coord, dractlBin)
	if st.Expirations < 1 || st.Requeues < 1 {
		t.Fatalf("no lease expiry observed (expirations=%d requeues=%d): kill did not land mid-lease", st.Expirations, st.Requeues)
	}
	if st.WorkersLive != 1 {
		t.Fatalf("workers live after kill = %d, want 1", st.WorkersLive)
	}

	// Control: the same spec on an uninterrupted standalone instance.
	ctrl := startDrad(t, dradBin, filepath.Join(t.TempDir(), "control"))
	defer ctrl.cmd.Process.Kill()
	control := ctrl.run(t, dractlBin, "submit", "-wait", spec)
	if !bytes.Equal(normalizeJSON(t, merged), normalizeJSON(t, control)) {
		t.Fatalf("merged fleet result differs from uninterrupted standalone control:\nfleet:      %s\nstandalone: %s", merged, control)
	}
}

// fleetJSON issues one request against a fleet coordinator and decodes
// the JSON answer, failing the test on any status but want.
func fleetJSON(t *testing.T, method, url string, body []byte, want int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: HTTP %d, want %d: %s", method, url, resp.StatusCode, want, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
	}
}

// TestFleetScaling checks that the fleet turns workers into throughput:
// a batch of CPU-bound, shardable Monte-Carlo jobs must finish more
// than 1.1x as fast on a two-worker fleet as on a one-worker fleet.
// Both fleets stay up side by side and batches alternate between them,
// so load from tests running beside this one hits both alike; the
// assertion is on the median of the paired ratios. A one-CPU host
// time-shares the two workers, so there the ratio is only logged.
func TestFleetScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries")
	}
	const (
		pairs     = 5
		batchJobs = 8
		reps      = 3072
		minRatio  = 1.1
	)
	dradBin, dractlBin := buildBinaries(t)

	var fleets [2]*dradProc // fleets[k-1] runs k workers
	for i := range fleets {
		k := i + 1
		dir := t.TempDir()
		coord := startCoordinatorProc(t, dradBin, filepath.Join(dir, "coord"))
		t.Cleanup(func() { coord.cmd.Process.Kill(); coord.cmd.Wait() })
		for w := 0; w < k; w++ {
			id := fmt.Sprintf("scale%d-w%d", k, w)
			wp := startWorkerProc(t, dradBin, coord.base, id, filepath.Join(dir, id))
			t.Cleanup(func() { wp.Process.Kill(); wp.Wait() })
		}
		waitFor(t, 15*time.Second, fmt.Sprintf("%d workers to register", k), func() bool {
			return fleetStatus(t, coord, dractlBin).WorkersLive == k
		})
		fleets[i] = coord
	}

	// batch submits batchJobs jobs to one fleet and returns the wall time
	// until the last finishes. Every job gets a fresh seed, so none is a
	// cache hit; MC workers are pinned to 1 so the parallelism measured
	// is the fleet's, not the engine's.
	seed := uint64(50000)
	batch := func(p *dradProc) time.Duration {
		t0 := time.Now()
		ids := make([]string, batchJobs)
		for i := range ids {
			spec, err := json.Marshal(config.Spec{
				Kind:   config.KindReliability,
				Router: &config.RouterSpec{N: 9, M: 2},
				MC:     &config.MCSpec{Horizon: 40000, Reps: reps, Seed: seed, Workers: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			seed++
			var snap jobs.Snapshot
			fleetJSON(t, http.MethodPost, p.base+"/v1/jobs", spec, http.StatusAccepted, &snap)
			ids[i] = snap.ID
		}
		for _, id := range ids {
			waitFor(t, 120*time.Second, "job "+id+" to finish", func() bool {
				var snap jobs.Snapshot
				fleetJSON(t, http.MethodGet, p.base+"/v1/jobs/"+id, nil, http.StatusOK, &snap)
				if snap.State.Terminal() && snap.State != jobs.StateDone {
					t.Fatalf("job %s ended %s: %s", id, snap.State, snap.Error)
				}
				return snap.State == jobs.StateDone
			})
		}
		return time.Since(t0)
	}

	ratios := make([]float64, pairs)
	for i := range ratios {
		one := batch(fleets[0])
		two := batch(fleets[1])
		ratios[i] = one.Seconds() / two.Seconds()
		t.Logf("pair %d: 1 worker %v, 2 workers %v, throughput ratio %.2f", i+1, one, two, ratios[i])
	}
	sort.Float64s(ratios)
	median := ratios[pairs/2]
	cpus := runtime.NumCPU()
	t.Logf("%d CPUs: median 2-over-1-worker throughput ratio %.2f over %d pairs of %d jobs x %d reps",
		cpus, median, pairs, batchJobs, reps)
	if cpus >= 2 && median <= minRatio {
		t.Fatalf("two workers bought a %.2fx median throughput ratio over one (ratios %.2f), want > %.1fx on %d CPUs",
			median, ratios, minRatio, cpus)
	}
}
