package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is 0 for a root span and
// Req groups the spans of one request (0 outside requests).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin starts a span under parent (0 for a root) for request req.
func (t *tracer) begin(name string, parent, req int64) open {
	if t == nil {
		return open{start: time.Now()}
	}
	return open{t: t, id: t.nextID.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if o.t == nil {
		return d
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(o.t.t0)), End: int64(now.Sub(o.t.t0)),
	})
	o.t.mu.Unlock()
	return d
}

// layerRow is one line of the per-layer table: all spans of one name.
type layerRow struct {
	Name   string
	Calls  int
	Total  time.Duration
	Self   time.Duration
	P50    time.Duration // median call duration
	Counts string        // counters read at this boundary, if any
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// table aggregates the spans by name, in order of first appearance.
func (t *tracer) table(counts map[string]string) []layerRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	self := selfTimes(spans)
	idx := make(map[string]int)
	var rows []layerRow
	durs := make(map[string]samples)
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, layerRow{Name: s.Name, Counts: counts[s.Name]})
		}
		d := time.Duration(s.End - s.Start)
		rows[i].Calls++
		rows[i].Total += d
		rows[i].Self += self[s.ID]
		ds := durs[s.Name]
		ds.add(d)
		durs[s.Name] = ds
	}
	for i := range rows {
		rows[i].P50 = time.Duration(durs[rows[i].Name].median() * 1e6)
	}
	return rows
}

// writeTable prints the per-layer table.
func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s %12s  %s\n", "span", "calls", "total_ms", "self_ms", "p50_us", "counts")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %12.3f  %s\n", r.Name, r.Calls,
			float64(r.Total)/1e6, float64(r.Self)/1e6, float64(r.P50)/1e3, r.Counts)
	}
}

// writeFile writes the spans as JSON lines to path, creating its directory.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
