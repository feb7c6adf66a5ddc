package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request or
// job share an ID; Parent names the span that caused it ("" for a root).
type span struct {
	Name   string    `json:"name"`
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths share the wrappers for free.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span.
func (rec *recorder) add(name, id, parent string, start, end time.Time) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.spans = append(rec.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	rec.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (rec *recorder) all() []span {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]span(nil), rec.spans...)
}

// named returns the spans of one name.
func (rec *recorder) named(name string) []span {
	var out []span
	for _, s := range rec.all() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durationsMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

func (rec *recorder) write(path string) error {
	data, err := json.Marshal(rec.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes reports each span name's total and self time: the span's
// duration minus the part of it its children (spans with the same ID
// whose Parent is this span's name) cover.
func (rec *recorder) selfTimes() []string {
	all := rec.all()
	byID := map[string][]span{}
	for _, s := range all {
		byID[s.ID] = append(byID[s.ID], s)
	}
	type acc struct {
		total, self time.Duration
		n           int
	}
	per := map[string]*acc{}
	for _, s := range all {
		var covered time.Duration
		var kids [][2]time.Time
		for _, c := range byID[s.ID] {
			if c.Parent == s.Name && !c.Start.Before(s.Start) && !c.End.After(s.End) {
				kids = append(kids, [2]time.Time{c.Start, c.End})
			}
		}
		covered = unionLen(kids)
		a := per[s.Name]
		if a == nil {
			a = &acc{}
			per[s.Name] = a
		}
		a.total += s.dur()
		a.self += s.dur() - covered
		a.n++
	}
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("%-24s %8s %12s %12s", "span", "count", "total_ms", "self_ms")}
	for _, n := range names {
		a := per[n]
		out = append(out, fmt.Sprintf("%-24s %8d %12.3f %12.3f", n, a.n, ms(a.total), ms(a.self)))
	}
	return out
}

// unionLen is the length of the union of intervals.
func unionLen(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = x[0], x[1]
			continue
		}
		if x[1].After(curE) {
			curE = x[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// timeCalls times n calls of f and returns their durations in µs.
func timeCalls(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		f(i)
		out[i] = us(time.Since(t))
	}
	return out
}

// pacedCalls times n calls of f made spacing apart (the sleep is not
// timed). Calls that fsync cost more spaced out than back to back, so
// they are timed at the spacing the workload makes them.
func pacedCalls(n int, spacing time.Duration, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		time.Sleep(spacing)
		t := time.Now()
		f(i)
		out[i] = us(time.Since(t))
	}
	return out
}
