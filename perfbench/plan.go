package main

import "strings"

// layerPlan is what one workload's traced run promises about the
// per-layer metrics. Measures lists the metrics (by name or name
// prefix) the run must set; a run that leaves one unset fails. Flat
// lists the layer groups the workload is predicted not to reach; the
// prediction is checked against the run's own spans and scraped
// counters, and a group that did any work fails the run. Every other
// metric belongs to a layer this workload reaches but another workload
// measures, and reports 0.
type layerPlan struct {
	measures []string
	flat     []string
}

var plans = map[string]layerPlan{
	"rare": {
		measures: []string{"client.", "sim.", "router.", "topology.", "montecarlo.", "trace."},
		flat:     []string{"service", "store.put", "jobs.run", "sweep", "fleet"},
	},
	"serve-hit": {
		measures: []string{"client.", "config.", "mgmt.resolve_us", "mgmt.audit_append_us", "mgmt.audit_entries_per_req",
			"jobs.submit_us", "jobs.get_us", "jobs.cache_hit_ratio", "store.get_us", "store.hit_ratio", "store.objects",
			"server.", "loadgen.", "trace.", "sim.events"},
		flat: []string{"engine", "store.put", "jobs.run", "sweep", "fleet"},
	},
	"serve-cold": {
		measures: []string{"client.", "config.", "mgmt.", "jobs.submit_us", "jobs.get_us", "jobs.queue_wait_ms",
			"jobs.run_ms.", "jobs.cache_hit_ratio", "store.", "server.", "sweep.", "markov.", "telemetry.",
			"trace.", "sim.events", "fleet.", "httpretry."},
	},
}

// groups maps each flat-predictable layer group to the metric-name
// prefixes it covers.
var groups = map[string][]string{
	"engine":    {"sim.", "router.", "topology.", "montecarlo."},
	"service":   {"config.", "mgmt.", "jobs.", "store.", "server.", "loadgen."},
	"store.put": {"store.put_ms"},
	"jobs.run":  {"jobs.run_ms.", "jobs.queue_wait_ms", "telemetry."},
	"sweep":     {"sweep.", "markov."},
	"fleet":     {"fleet.", "httpretry."},
}

// activity counts the work each layer group did in the traced run's
// measured phase: spans recorded at its boundaries from r.measured on,
// plus the counters scraped over the phase.
func (r *run) activity() map[string]float64 {
	spans := map[string]float64{}
	for _, s := range r.spans.all() {
		if !s.Start.Before(r.measured) {
			spans[s.Name]++
		}
	}
	count := func(prefixes ...string) float64 {
		n := 0.0
		for name, c := range spans {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) {
					n += c
				}
			}
		}
		return n
	}
	c := r.counters
	return map[string]float64{
		"engine": c["sim_events_fired_total"] + c["montecarlo_cycles_total"] + c["montecarlo_trials_total"] + count("jobs.run."),
		"service": count("server.", "mgmt.") + c["jobs_submitted_total"] + c["jobs_cache_hits_total"] +
			c["mgmt_audit_entries_total"] + c["store_hits_total"] + c["store_misses_total"] + c["store_objects"],
		"store.put": c["store_objects"],
		"jobs.run":  count("jobs.run.", "telemetry."),
		"sweep":     count("jobs.run.sweep"),
		"fleet":     count("fleet.") + c["fleet_requeues_total"] + c["fleet_lease_expirations_total"],
	}
}

// checkPlan applies the workload's layerPlan: it fails the run for a
// promised metric left unset or a flat prediction the run contradicts,
// then reports 0 for every metric the run does not measure.
func (r *run) checkPlan(bf benchFile) {
	p := plans[r.workload]
	act := r.activity()
	for _, g := range p.flat {
		if act[g] != 0 {
			r.problem("%s is predicted flat on %s but did %g units of work", g, r.workload, act[g])
		}
	}
	var flat, elsewhere []string
	for _, m := range bf.PerLayer {
		if _, ok := r.metrics[m.Name]; ok {
			continue
		}
		if hasPrefix(m.Name, p.measures) {
			r.problem("%s: %s was not measured", r.workload, m.Name)
		}
		r.metrics[m.Name] = 0
		if g := groupOf(m.Name, p.flat); g != "" {
			flat = append(flat, m.Name)
		} else {
			elsewhere = append(elsewhere, m.Name)
		}
	}
	r.notef("flat (checked zero: %s): %s", strings.Join(p.flat, ", "), strings.Join(flat, " "))
	r.notef("measured on other workloads, reported 0: %s", strings.Join(elsewhere, " "))
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if name == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(name, p)) {
			return true
		}
	}
	return false
}

// groupOf is the first of the given layer groups that covers name.
func groupOf(name string, gs []string) string {
	for _, g := range gs {
		if hasPrefix(name, groups[g]) {
			return g
		}
	}
	return ""
}
