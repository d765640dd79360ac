package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/serve"
)

// The chat workload streams greedy /v1/generate requests from a closed
// loop of serve.DefaultMaxDecodeBatch clients against a synthetic
// OPT-class model big enough for long prompts (E23's bench geometry).
const (
	chatModel     = "synthetic-opt-d256"
	chatClients   = serve.DefaultMaxDecodeBatch
	chatMaxTokens = 16
	chatModelSeed = 23
	chatPoolSeed  = 2323
	chatCalibSeed = 2324
	chatCalibLen  = 128
)

var chatCfg = nn.Config{
	Name: chatModel, Arch: nn.ArchOPT, Vocab: 256, DModel: 256, NHeads: 4,
	NLayers: 2, DFF: 1024, MaxSeq: 512 + chatMaxTokens - 1,
}

// chatMix is E23's prompt mix 16:4,128:2,512:1. Prompts are drawn from a
// fixed pool per length so every stream can be checked against a pinned
// hash; the seed picks the order and the pool entries.
var chatMix = []struct{ length, weight, pool int }{
	{16, 4, 48},
	{128, 2, 24},
	{512, 1, 12},
}

type chatPrompt struct {
	id     string
	tokens []int
}

// chatPool builds the fixed prompt pool, one slice per mix class.
func chatPool() [][]chatPrompt {
	r := rng.New(chatPoolSeed)
	pool := make([][]chatPrompt, len(chatMix))
	for ci, c := range chatMix {
		for i := 0; i < c.pool; i++ {
			toks := make([]int, c.length)
			for j := range toks {
				toks[j] = r.Intn(chatCfg.Vocab)
			}
			pool[ci] = append(pool[ci], chatPrompt{id: fmt.Sprintf("%d/%d", c.length, i), tokens: toks})
		}
	}
	return pool
}

// chatSchedule yields one client's prompts: the mix's classes in shuffled
// blocks (four 16s, two 128s, one 512 per block), so every client sees
// the mix's proportions whatever the seed.
type chatSchedule struct {
	r     *rng.Rand
	pool  [][]chatPrompt
	block []int
}

func (s *chatSchedule) next() chatPrompt {
	if len(s.block) == 0 {
		for ci, c := range chatMix {
			for k := 0; k < c.weight; k++ {
				s.block = append(s.block, ci)
			}
		}
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	ci := s.block[0]
	s.block = s.block[1:]
	return s.pool[ci][s.r.Intn(len(s.pool[ci]))]
}

type chatExpect struct {
	Model     string            `json:"model"`
	MaxTokens int               `json:"max_tokens"`
	Streams   map[string]string `json:"streams"` // prompt id → streamHash of its greedy tokens
}

type chat struct {
	seed uint64
	wl   *harness.Workload
	eng  *engine.Engine
	srv  *serve.Server
	pool [][]chatPrompt
	want chatExpect
}

func setupChat(seed uint64) (instance, error) {
	m, err := nn.NewModel(chatCfg, rng.New(chatModelSeed))
	if err != nil {
		return nil, err
	}
	cr := rng.New(chatCalibSeed)
	calib := make([][]int, harness.CalibSize)
	for i := range calib {
		calib[i] = make([]int, chatCalibLen)
		for j := range calib[i] {
			calib[i][j] = cr.Intn(chatCfg.Vocab)
		}
	}
	wl := &harness.Workload{
		Spec:  model.Spec{Key: chatModel, Display: "OPT-class d=256 (synthetic)", Family: "opt", Cfg: chatCfg},
		Model: m,
		Calib: calib,
	}
	eng := engine.New(engine.Config{})
	c := &chat{
		seed: seed,
		wl:   wl,
		eng:  eng,
		srv:  serve.New(eng, serve.Config{}, []*harness.Workload{wl}),
		pool: chatPool(),
	}
	return c, nil
}

type genBody struct {
	Model     string `json:"model"`
	Mode      string `json:"mode"`
	Prompt    []int  `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
}

type genEvent struct {
	Token        int    `json:"token"`
	Done         bool   `json:"done"`
	FinishReason string `json:"finish_reason"`
}

// stream is one parsed /v1/generate reply.
type stream struct {
	code   int
	tokens []int
	times  []time.Time // arrival of each token
	finish string
}

// parseStream decodes a recorded NDJSON reply. A reply without a final
// event, or with an unparsable line, finishes as "malformed".
func parseStream(rec *recorder) stream {
	s := stream{code: rec.code, finish: "malformed"}
	if rec.code != http.StatusOK {
		return s
	}
	for _, w := range rec.writes {
		var ev genEvent
		if err := json.Unmarshal(w.data, &ev); err != nil {
			return s
		}
		if ev.Done {
			s.finish = ev.FinishReason
			return s
		}
		s.tokens = append(s.tokens, ev.Token)
		s.times = append(s.times, w.at)
	}
	return s
}

// judge classifies a reply: only a clean "length" finish with the full
// token budget and the pinned stream counts as correct.
func (s stream) judge(want string) outcome {
	switch {
	case s.code == http.StatusTooManyRequests:
		return outRejected
	case s.code != http.StatusOK || s.finish != "length" || len(s.tokens) != chatMaxTokens:
		return outError
	case streamHash(s.tokens) != want:
		return outWrong
	}
	return outOK
}

func (c *chat) generate(p chatPrompt) (stream, time.Time) {
	rec, t0 := call(c.srv, "/v1/generate", genBody{Model: chatModel, Mode: "nora", Prompt: p.tokens, MaxTokens: chatMaxTokens})
	return parseStream(rec), t0
}

func (c *chat) first() error {
	if err := loadExpect("chat", &c.want); err != nil {
		return err
	}
	p := c.pool[0][0]
	s, _ := c.generate(p)
	if o := s.judge(c.want.Streams[p.id]); o != outOK {
		return fmt.Errorf("chat: first request %s: status %d, finish %q, %d tokens: %s", p.id, s.code, s.finish, len(s.tokens), outcomeName(o))
	}
	return nil
}

func (c *chat) pin() error {
	want := chatExpect{Model: chatModel, MaxTokens: chatMaxTokens, Streams: map[string]string{}}
	for _, class := range c.pool {
		for _, p := range class {
			s, _ := c.generate(p)
			if s.code != http.StatusOK || s.finish != "length" || len(s.tokens) != chatMaxTokens {
				return fmt.Errorf("chat: pinning %s: status %d, finish %q", p.id, s.code, s.finish)
			}
			want.Streams[p.id] = streamHash(s.tokens)
		}
	}
	return saveExpect("chat", want)
}

// chatClient accumulates one client's samples, merged after the loop.
type chatClient struct {
	sched                chatSchedule
	ttft, ttftShort, itl samples
	tokens               int64 // streamed inside the window
	forwards             int64
}

func (c *chat) load(w window, tr *tracer, parent int64) *measure {
	m := &measure{}
	clients := make([]chatClient, chatClients)
	for i := range clients {
		clients[i].sched = chatSchedule{r: rng.New(c.seed).Split(fmt.Sprintf("chat/client%d", i)), pool: c.pool}
	}
	var reqID atomic.Int64
	before := c.srv.StatzSnapshot()
	ops0 := servedOps(c.srv)
	closedLoop(chatClients, w, func(ci int) {
		cl := &clients[ci]
		p := cl.sched.next()
		sp := tr.begin("serve.Server.ServeHTTP/generate", parent, reqID.Add(1))
		s, t0 := c.generate(p)
		sp.end()
		o := s.judge(c.want.Streams[p.id])
		m.tally.record(o)
		if o == outRejected {
			time.Sleep(backoff)
			return
		}
		cl.forwards += int64(len(p.tokens) + len(s.tokens) - 1)
		for i, at := range s.times {
			if w.contains(at) {
				cl.tokens++
			}
			if i == 0 {
				if w.contains(t0) {
					cl.ttft.add(at.Sub(t0))
					if len(p.tokens) == chatMix[0].length {
						cl.ttftShort.add(at.Sub(t0))
					}
				}
			} else if w.contains(at) {
				cl.itl.add(at.Sub(s.times[i-1]))
			}
		}
	})
	after := c.srv.StatzSnapshot()
	var ttft, short, itl samples
	var tokens int64
	for _, cl := range clients {
		ttft = append(ttft, cl.ttft...)
		short = append(short, cl.ttftShort...)
		itl = append(itl, cl.itl...)
		tokens += cl.tokens
		m.forwards += cl.forwards
	}
	m.rate = float64(tokens) / w.seconds()
	// Time to first output is E23's short-prompt TTFT: the median over all
	// prompts falls between the 16- and 128-token classes and swings with
	// the mix of a run.
	m.p50, m.p95, m.ttft = itl.median(), itl.tail(0.95), short.median()
	m.report = []reportLine{
		rateLine("tok_s", m.rate, "tok/s", tokens),
		quantLine("ttft_short_p50_ms", short, 0.50),
		quantLine("ttft_p50_ms", ttft, 0.50),
		quantLine("ttft_p95_ms", ttft, 0.95),
		quantLine("itl_p50_ms", itl, 0.50),
		quantLine("itl_p95_ms", itl, 0.95),
		quantLine("itl_p99_ms", itl, 0.99),
	}
	m.serve = serveDelta(before, after)
	m.ops = opsDelta(ops0, servedOps(c.srv))
	return m
}

// replicaOf returns the group and replica the server routed the workload
// to (the default fleet has exactly one).
func replicaOf(srv *serve.Server) (*fleet.Group, *fleet.Replica, error) {
	for _, g := range srv.Fleet().Groups() {
		if reps := g.Replicas(); len(reps) > 0 {
			return g, reps[0], nil
		}
	}
	return nil, nil, fmt.Errorf("no served replica")
}

func (c *chat) probes() (probeSet, error) {
	g, rep, err := replicaOf(c.srv)
	if err != nil {
		return probeSet{}, err
	}
	var short [][]int
	for _, pr := range c.pool[0] {
		short = append(short, pr.tokens)
	}
	return probeSet{
		runner: rep.Runner(),
		group:  g,
		eng:    c.eng,
		calib:  []*harness.Workload{c.wl},
		// The probes run on the 16-token prompts: the longer ones would
		// multiply their time without changing a per-token figure.
		eval:     func() error { _, err := rep.EvalCtx(context.Background(), short); return err },
		contexts: short,
		prompts:  short[:chatClients],
		prefill:  [][]int{c.pool[2][0].tokens},
	}, nil
}

func (c *chat) close() { c.srv.Close() }
