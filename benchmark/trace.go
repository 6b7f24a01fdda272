package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark writes them out. A nil
// *tracer records nothing, so untraced passes run the same code with a
// nil check in place of each span.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t                 *tracer
	name              string
	trace, id, parent uint64
	start             int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root starts a span that begins a new trace under parent (nil for a
// top-level span). A trace groups the spans of one unit of work: one
// simulation, one build, one query or one reconfiguration.
func (t *tracer) root(name string, parent *open) *open {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	o := &open{t: t, name: name, trace: id, id: id, start: t.now()}
	if parent != nil {
		o.parent = parent.id
	}
	return o
}

// unit starts a span under o that begins a new trace.
func (o *open) unit(name string) *open {
	if o == nil {
		return nil
	}
	return o.t.root(name, o)
}

// child starts a span inside o's trace.
func (o *open) child(name string) *open {
	if o == nil {
		return nil
	}
	return &open{t: o.t, name: name, trace: o.trace, id: o.t.ids.Add(1), parent: o.id, start: o.t.now()}
}

// end records the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	s := span{Name: o.name, Trace: o.trace, ID: o.id, Parent: o.parent, Start: o.start, End: o.t.now()}
	o.t.add(s)
	return s.dur()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one JSON object per span to path, creating its
// directory.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat is one row of the per-layer summary.
type layerStat struct {
	Count       int
	Total, Self time.Duration
}

// summarize groups spans by name. A span's self time is its duration minus
// the part of its interval that its children cover; children that overlap
// (the two workers of a sweep) are merged first, so covered time is never
// counted twice.
func summarize(spans []span) map[string]*layerStat {
	kids := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, spans, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of its children
// (indices into spans) covers.
func covered(parent span, spans []span, children []int) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range children {
		c := spans[i]
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if started {
		total += curB - curA
	}
	return time.Duration(total)
}

// printSummary writes the per-layer table, widest self time first.
func printSummary(w io.Writer, sum map[string]*layerStat) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if sum[names[i]].Self != sum[names[j]].Self {
			return sum[names[i]].Self > sum[names[j]].Self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "  %-24s %9s %14s %14s\n", "layer", "count", "total_ms", "self_ms")
	for _, n := range names {
		st := sum[n]
		fmt.Fprintf(w, "  %-24s %9d %14.3f %14.3f\n", n, st.Count, ms(st.Total), ms(st.Self))
	}
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfWithPrefix sums the self time of every layer whose name starts with
// prefix, except the layer named skip.
func selfWithPrefix(sum map[string]*layerStat, prefix, skip string) time.Duration {
	var d time.Duration
	for n, st := range sum {
		if strings.HasPrefix(n, prefix) && n != skip {
			d += st.Self
		}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
