package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 95, End: 120}, // runs past its parent
		{ID: 6, Parent: 4, Start: 62, End: 64},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 45, 2: 20, 3: 30, 4: 8, 5: 25, 6: 2} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestNilTracerStillTimes(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0, 0)
	time.Sleep(time.Millisecond)
	if d := sp.end(); d < time.Millisecond {
		t.Errorf("untraced span timed %v", d)
	}
}

func TestTableAndSpanFile(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 0)
	for i := 0; i < 3; i++ {
		tr.begin("child", root.id, int64(i+1)).end()
	}
	root.end()
	rows := tr.table(map[string]string{"child": "n=3"})
	if len(rows) != 2 || rows[0].Name != "root" || rows[1].Calls != 3 || rows[1].Counts != "n=3" {
		t.Fatalf("table = %+v", rows)
	}
	path := filepath.Join(t.TempDir(), "out", "spans.jsonl")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.Name == "" {
			t.Errorf("bad span %+v", s)
		}
		n++
	}
	if n != 4 {
		t.Errorf("%d spans in file, want 4", n)
	}
}
