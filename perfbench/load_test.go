package main

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// fakeGenerate answers /v1/generate like the server would for each
// scripted case, so the client-side accounting can be checked alone.
type fakeGenerate struct {
	status int
	tokens int
	finish string
	wait   time.Duration // admission wait before the first token
}

func (f fakeGenerate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.status != http.StatusOK {
		w.WriteHeader(f.status)
		w.Write([]byte(`{"error":"scripted"}`))
		return
	}
	time.Sleep(f.wait)
	enc := json.NewEncoder(w)
	for i := 0; i < f.tokens; i++ {
		enc.Encode(map[string]any{"token": i, "index": i})
	}
	enc.Encode(map[string]any{"done": true, "finish_reason": f.finish})
}

func run16() []int {
	toks := make([]int, chatMaxTokens)
	for i := range toks {
		toks[i] = i
	}
	return toks
}

func TestRejectsAndErrorFinalsCountAgainstAttempts(t *testing.T) {
	want := streamHash(run16())
	cases := []struct {
		h    fakeGenerate
		want outcome
	}{
		{fakeGenerate{status: http.StatusOK, tokens: chatMaxTokens, finish: "length"}, outOK},
		{fakeGenerate{status: http.StatusTooManyRequests}, outRejected},
		{fakeGenerate{status: http.StatusServiceUnavailable}, outError},
		{fakeGenerate{status: http.StatusOK, tokens: 3, finish: "error"}, outError},
		{fakeGenerate{status: http.StatusOK, tokens: 3, finish: "canceled"}, outError},
		{fakeGenerate{status: http.StatusOK, tokens: chatMaxTokens, finish: "shutdown"}, outError},
		{fakeGenerate{status: http.StatusOK, tokens: chatMaxTokens - 1, finish: "length"}, outError},
	}
	var tl tally
	for i, c := range cases {
		rec, _ := call(c.h, "/v1/generate", genBody{})
		got := parseStream(rec).judge(want)
		if got != c.want {
			t.Errorf("case %d: %s, want %s", i, outcomeName(got), outcomeName(c.want))
		}
		tl.record(got)
	}
	tl.record(outWrong)
	if tl.attempted != len(cases)+1 || tl.failed() != len(cases) || tl.rejected != 1 || tl.wrong != 1 {
		t.Errorf("tally: attempted %d failed %d rejected %d wrong %d", tl.attempted, tl.failed(), tl.rejected, tl.wrong)
	}
}

func TestWrongStreamIsAFailure(t *testing.T) {
	rec, _ := call(fakeGenerate{status: http.StatusOK, tokens: chatMaxTokens, finish: "length"}, "/v1/generate", genBody{})
	if got := parseStream(rec).judge("0000000000000000"); got != outWrong {
		t.Errorf("mismatched stream judged %s", outcomeName(got))
	}
}

func TestTTFTIncludesAdmissionWait(t *testing.T) {
	const wait = 30 * time.Millisecond
	rec, t0 := call(fakeGenerate{status: http.StatusOK, tokens: 2, finish: "length", wait: wait}, "/v1/generate", genBody{})
	s := parseStream(rec)
	if len(s.times) != 2 {
		t.Fatalf("%d token times, want 2", len(s.times))
	}
	if ttft := s.times[0].Sub(t0); ttft < wait {
		t.Errorf("TTFT %v excludes the %v wait before the first token", ttft, wait)
	}
}
