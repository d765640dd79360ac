package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// recorder is the in-process ResponseWriter of one request. Every Write is
// timestamped: the server's NDJSON encoder writes one event per call, so
// write times are token arrival times.
type recorder struct {
	header http.Header
	code   int
	writes []write
}

type write struct {
	at   time.Time
	data []byte
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.writes = append(r.writes, write{at: time.Now(), data: append([]byte(nil), p...)})
	return len(p), nil
}

// Flush implements http.Flusher; writes are already delivered.
func (r *recorder) Flush() {}

// body concatenates everything written.
func (r *recorder) body() []byte {
	var b bytes.Buffer
	for _, w := range r.writes {
		b.Write(w.data)
	}
	return b.Bytes()
}

// call runs one POST through the handler in the calling goroutine and
// returns the recorder and the request start time.
func call(h http.Handler, path string, body any) (*recorder, time.Time) {
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err) // bodies are benchmark-built structs
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	rec := newRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, t0
}

// tally counts requests against their outcomes. Every request attempted
// ends in exactly one of: ok, rejected (429), errored (other status,
// malformed reply, or a final event other than a clean finish) or wrong
// (a reply that differs from the pinned expectation).
type tally struct {
	mu                                  sync.Mutex
	attempted, ok, rejected, err, wrong int
}

type outcome int

const (
	outOK outcome = iota
	outRejected
	outError
	outWrong
)

func (t *tally) record(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch o {
	case outOK:
		t.ok++
	case outRejected:
		t.rejected++
	case outError:
		t.err++
	case outWrong:
		t.wrong++
	}
}

// failed is every attempt that did not end in a correct reply.
func (t *tally) failed() int { return t.rejected + t.err + t.wrong }

// window is the measured interval [from, end) of a load phase. Load starts
// warm before from; no request starts at or after end.
type window struct {
	from, end time.Time
}

func newWindow(warm, length time.Duration) window {
	now := time.Now()
	return window{from: now.Add(warm), end: now.Add(warm + length)}
}

func (w window) contains(t time.Time) bool { return !t.Before(w.from) && t.Before(w.end) }

func (w window) seconds() float64 { return w.end.Sub(w.from).Seconds() }

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one completed, until the window ends. It returns when
// every in-flight request has finished.
func closedLoop(clients int, w window, send func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(w.end) {
				send(c)
			}
		}(c)
	}
	wg.Wait()
}

// backoff is the pause after a 429, honouring the server's Retry-After
// only briefly so a closed loop keeps its load.
const backoff = time.Millisecond
