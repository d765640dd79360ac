package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"nora/internal/engine"
	"nora/internal/harness"
	"nora/internal/model"
	"nora/internal/rng"
	"nora/internal/serve"
)

// The predict workload sends /v1/predict requests from a closed loop of 32
// clients (E20's top level) for opt-c3's eval-split contexts.
const (
	predictModel   = "opt-c3"
	predictClients = 32
	modelDir       = "testdata/models"
)

type predictExpect struct {
	Model   string `json:"model"`
	Answers []int  `json:"answers"` // greedy next token per eval-split context, in split order
}

type predict struct {
	seed uint64
	wl   *harness.Workload
	eng  *engine.Engine
	srv  *serve.Server
	ctxs [][]int
	want predictExpect
}

func setupPredict(seed uint64) (instance, error) {
	spec, err := model.ByKey(predictModel)
	if err != nil {
		return nil, err
	}
	wl, err := harness.NewWorkload(modelDir, spec, harness.EvalSize, harness.CalibSize)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{})
	return &predict{
		seed: seed,
		wl:   wl,
		eng:  eng,
		srv:  serve.New(eng, serve.Config{}, []*harness.Workload{wl}),
		ctxs: contexts(wl.Eval),
	}, nil
}

// contexts drops the answer token from each eval sequence, as the eval
// path does (sequences shorter than two tokens are skipped there too).
func contexts(eval [][]int) [][]int {
	var out [][]int
	for _, seq := range eval {
		if len(seq) >= 2 {
			out = append(out, seq[:len(seq)-1])
		}
	}
	return out
}

type predictBody struct {
	Model   string `json:"model"`
	Mode    string `json:"mode"`
	Context []int  `json:"context"`
}

type predictReply struct {
	Token   int     `json:"token"`
	QueueMS float64 `json:"queue_ms"`
}

// ask sends context i and classifies the reply.
func (p *predict) ask(i int) (outcome, predictReply, time.Time) {
	rec, t0 := call(p.srv, "/v1/predict", predictBody{Model: predictModel, Mode: "nora", Context: p.ctxs[i]})
	var rep predictReply
	switch {
	case rec.code == http.StatusTooManyRequests:
		return outRejected, rep, t0
	case rec.code != http.StatusOK:
		return outError, rep, t0
	}
	if err := json.Unmarshal(rec.body(), &rep); err != nil {
		return outError, rep, t0
	}
	if i >= len(p.want.Answers) || rep.Token != p.want.Answers[i] {
		return outWrong, rep, t0
	}
	return outOK, rep, t0
}

func (p *predict) first() error {
	if err := loadExpect("predict", &p.want); err != nil {
		return err
	}
	if len(p.want.Answers) != len(p.ctxs) {
		return fmt.Errorf("predict: %d pinned answers for %d contexts", len(p.want.Answers), len(p.ctxs))
	}
	if o, _, _ := p.ask(0); o != outOK {
		return fmt.Errorf("predict: first request: %s", outcomeName(o))
	}
	return nil
}

func (p *predict) pin() error {
	want := predictExpect{Model: predictModel}
	for _, ctx := range p.ctxs {
		rec, _ := call(p.srv, "/v1/predict", predictBody{Model: predictModel, Mode: "nora", Context: ctx})
		var rep predictReply
		if rec.code != http.StatusOK {
			return fmt.Errorf("predict: pinning: status %d", rec.code)
		}
		if err := json.Unmarshal(rec.body(), &rep); err != nil {
			return err
		}
		want.Answers = append(want.Answers, rep.Token)
	}
	return saveExpect("predict", want)
}

type predictClient struct {
	lat, queue samples
	done       int64 // completed inside the window
	forwards   int64
}

func (p *predict) load(w window, tr *tracer, parent int64) *measure {
	m := &measure{}
	order := rng.New(p.seed).Split("predict/order").Perm(len(p.ctxs))
	var next, reqID atomic.Int64
	clients := make([]predictClient, predictClients)
	before := p.srv.StatzSnapshot()
	ops0 := servedOps(p.srv)
	closedLoop(predictClients, w, func(ci int) {
		cl := &clients[ci]
		i := order[int(next.Add(1)-1)%len(order)]
		sp := tr.begin("serve.Server.ServeHTTP/predict", parent, reqID.Add(1))
		o, rep, t0 := p.ask(i)
		sp.end()
		done := time.Now()
		m.tally.record(o)
		if o == outRejected {
			time.Sleep(backoff)
			return
		}
		cl.forwards += int64(len(p.ctxs[i]))
		if w.contains(done) {
			cl.done++
			cl.lat.add(done.Sub(t0))
			cl.queue = append(cl.queue, rep.QueueMS)
		}
	})
	after := p.srv.StatzSnapshot()
	var lat, queue samples
	var done int64
	for _, cl := range clients {
		lat = append(lat, cl.lat...)
		queue = append(queue, cl.queue...)
		done += cl.done
		m.forwards += cl.forwards
	}
	m.rate = float64(done) / w.seconds()
	m.p50, m.p95, m.ttft = lat.median(), lat.tail(0.95), lat.median()
	m.queue = queue
	m.report = []reportLine{
		rateLine("req_s", m.rate, "req/s", done),
		quantLine("latency_p50_ms", lat, 0.50),
		quantLine("latency_p95_ms", lat, 0.95),
		quantLine("latency_p99_ms", lat, 0.99),
	}
	m.serve = serveDelta(before, after)
	m.ops = opsDelta(ops0, servedOps(p.srv))
	return m
}

func (p *predict) probes() (probeSet, error) {
	g, rep, err := replicaOf(p.srv)
	if err != nil {
		return probeSet{}, err
	}
	return probeSet{
		runner:   rep.Runner(),
		group:    g,
		eng:      p.eng,
		calib:    []*harness.Workload{p.wl},
		eval:     func() error { _, err := rep.EvalCtx(context.Background(), p.wl.Eval); return err },
		contexts: p.ctxs,
		prompts:  p.ctxs[:chatClients],
		prefill:  p.ctxs,
	}, nil
}

func (p *predict) close() { p.srv.Close() }
