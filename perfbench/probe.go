package main

import (
	"errors"
	"fmt"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/nn"
	"nora/internal/rng"
	"nora/internal/tensor"
)

// prober measures the per-layer metrics of a traced run. After the load
// phases it calls each layer's public functions on the served replica,
// with the workload's own inputs and shapes, under one span per call.
// The program itself carries no instrumentation.
type prober struct {
	tr     *tracer
	root   int64 // span the probe spans hang under
	seed   uint64
	vals   map[string]float64
	counts map[string]string // counters shown beside a span name in the table
}

// Per-call budgets: each probe repeats its call until it has run at least
// minCalls times and for at least probeBudget.
const (
	probeBudget = 400 * time.Millisecond
	minCalls    = 3
)

// timed runs fn under spans named name until the budget is spent and
// returns the call durations.
func (p *prober) timed(name string, fn func()) samples {
	var s samples
	start := time.Now()
	for len(s) < minCalls || time.Since(start) < probeBudget {
		sp := p.tr.begin(name, p.root, 0)
		fn()
		s.add(sp.end())
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeSet is what the per-layer calls run on: the served runner and
// fleet group, the workload's models, and its own inputs.
type probeSet struct {
	runner *nn.Runner
	group  *fleet.Group
	eng    *engine.Engine
	calib  []*harness.Workload
	// eval runs one evaluation pass through eng; unused when the load
	// phase already measured the engine (sweep).
	eval     func() error
	contexts [][]int // predict contexts
	prompts  [][]int // decode-probe prompts, one per row
	prefill  [][]int // sources of the prefill-probe chunk
}

// run reads the counters of the traced load m and calls every layer probe
// on s.
func (p *prober) run(s probeSet, m *measure) error {
	p.serve(m)
	p.analogCounts(m)
	var err error
	if m.engine != nil {
		p.engineStats(m.engine, m.passes)
	} else {
		err = p.engine(s.eng, s.eval)
	}
	p.calibrate(s.calib)
	p.predict(s.runner, s.contexts)
	p.kernels(s.runner)
	return errors.Join(err,
		p.fleetAcquire(s.group),
		p.decode(s.runner, s.prompts),
		p.prefill(s.runner, s.prefill))
}

// serve reads the serve-layer counters of the traced load phase.
func (p *prober) serve(m *measure) {
	c := m.serve
	p.vals["serve.predict_batch_mean"] = ratio(float64(c.predictRequests), float64(c.predictBatches))
	p.vals["serve.predict_queue_ms_p50"] = m.queue.median()
	p.vals["serve.gen_batch_mean"] = ratio(float64(c.genTokens), float64(c.genSteps))
	p.vals["serve.gen_step_ms"] = ratio(float64(c.genTime)/1e6, float64(c.genSteps))
	p.vals["serve.prefill_tokens_per_step"] = ratio(float64(c.genPrefill), float64(c.genSteps))
	p.vals["serve.rejected"] = float64(c.rejected)
}

// analogCounts reads the hardware counters of the traced load phase per
// token forwarded through the analog layers.
func (p *prober) analogCounts(m *measure) {
	o := m.ops
	p.vals["analog.mvms_per_token"] = ratio(float64(o.MVMs), float64(m.forwards))
	p.vals["analog.adc_convs_per_token"] = ratio(float64(o.ADCConvs), float64(m.forwards))
	p.vals["analog.bm_retry_frac"] = ratio(float64(o.BMRetries), float64(o.MVMs+o.BMRetries))
}

// acquiresPerSpan batches the sub-microsecond routing calls so that a
// span's own cost does not swamp what it measures.
const acquiresPerSpan = 1000

// fleetAcquire times one routing decision plus its release.
func (p *prober) fleetAcquire(g *fleet.Group) error {
	var err error
	s := p.timed("fleet.Group.Acquire", func() {
		for i := 0; i < acquiresPerSpan && err == nil; i++ {
			var release func()
			if _, release, err = g.Acquire(); err == nil {
				release()
			}
		}
	})
	p.vals["fleet.acquire_us"] = s.median() * 1e3 / acquiresPerSpan
	p.counts["fleet.Group.Acquire"] = fmt.Sprintf("acquires/span=%d", acquiresPerSpan)
	return err
}

// engine reads the deploy counters of a serving engine and times one
// evaluation pass through it.
func (p *prober) engine(eng *engine.Engine, eval func() error) error {
	before := eng.Stats()
	sp := p.tr.begin("engine.Deployment.EvalCtx", p.root, 0)
	err := eval()
	sp.end()
	if err != nil {
		return err
	}
	after := eng.Stats()
	p.vals["engine.deploy_builds"] = float64(after.DeployBuilds)
	p.vals["engine.deploy_ms"] = ratio(float64(after.DeployTime)/1e6, float64(after.DeployBuilds))
	p.vals["engine.eval_tok_s"] = ratio(float64(after.Tokens-before.Tokens), (after.EvalTime - before.EvalTime).Seconds())
	p.vals["engine.allocs_per_seq"] = ratio(float64(after.Mallocs-before.Mallocs), float64(after.Sequences-before.Sequences))
	p.counts["engine.Deployment.EvalCtx"] = fmt.Sprintf("seqs=%d tokens=%d", after.Sequences-before.Sequences, after.Tokens-before.Tokens)
	return nil
}

// engineStats reads the engine counters accumulated over sweep passes.
func (p *prober) engineStats(s *engine.Stats, passes int) {
	p.vals["engine.deploy_builds"] = ratio(float64(s.DeployBuilds), float64(passes))
	p.vals["engine.deploy_ms"] = ratio(float64(s.DeployTime)/1e6, float64(s.DeployBuilds))
	p.vals["engine.eval_tok_s"] = ratio(float64(s.Tokens), s.EvalTime.Seconds())
	p.vals["engine.allocs_per_seq"] = ratio(float64(s.Mallocs), float64(s.Sequences))
	p.counts["sweep.pass"] = fmt.Sprintf("deploys=%d seqs=%d tokens=%d", s.DeployBuilds, s.Sequences, s.Tokens)
}

// calibrate times NORA's calibration of every workload's model; the
// metric is the sum over models of each one's median.
func (p *prober) calibrate(ws []*harness.Workload) {
	total := 0.0
	for _, w := range ws {
		total += p.timed("core.Calibrate", func() { core.Calibrate(w.Model, w.Calib) }).median()
	}
	p.vals["core.calibrate_ms"] = total
}

// predict times noise-scoped full-sequence predictions over contexts.
func (p *prober) predict(r *nn.Runner, ctxs [][]int) {
	i := 0
	s := p.timed("nn.Runner.PredictLast", func() {
		r.WithNoiseScope(fmt.Sprintf("perfbench/predict/%d", i)).PredictLast(ctxs[i%len(ctxs)])
		i++
	})
	p.vals["nn.predict_ms"] = s.median()
}

// decodePrompt is the prompt length each decode-probe sequence starts
// from; decodeSteps bounds the timed one-token steps.
const (
	decodePrompt = 8
	decodeSteps  = 32
)

// decode times batched decode steps of len(prompts) one-token rows.
func (p *prober) decode(r *nn.Runner, prompts [][]int) error {
	steps := min(decodeSteps, r.Model().Cfg.MaxSeq-decodePrompt)
	bg := nn.NewBatchGeneratorPaged(r, len(prompts), 0, 0)
	var s samples
	start := time.Now()
	for round := 0; len(s) < minCalls || time.Since(start) < probeBudget; round++ {
		segs := make([]nn.StepSeg, len(prompts))
		for k, pr := range prompts {
			slot, err := bg.Begin(fmt.Sprintf("perfbench/decode/%d/%d", round, k), decodePrompt+steps)
			if err != nil {
				return err
			}
			if _, err := bg.StepSegs([]nn.StepSeg{{Slot: slot, Tokens: pr[:decodePrompt]}}); err != nil {
				return err
			}
			segs[k] = nn.StepSeg{Slot: slot, Tokens: []int{pr[decodePrompt]}}
		}
		for i := 0; i < steps-1; i++ {
			sp := p.tr.begin("nn.BatchGenerator.StepSegs/decode", p.root, 0)
			logits, err := bg.StepSegs(segs)
			s.add(sp.end())
			if err != nil {
				return err
			}
			for k := range segs {
				segs[k].Tokens = []int{argmax(logits.Row(k))}
			}
		}
		for _, seg := range segs {
			bg.Release(seg.Slot)
		}
	}
	p.vals["nn.decode_step_ms"] = s.median()
	return nil
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// prefillChunk is the serving default chunk (serve.DefaultPrefillChunk);
// models with a shorter context window prefill their whole window.
const prefillChunk = 64

// prefill times one prefill chunk at the start of a sequence, taken from
// the concatenated sources.
func (p *prober) prefill(r *nn.Runner, srcs [][]int) error {
	n := min(prefillChunk, r.Model().Cfg.MaxSeq)
	var toks []int
	for _, s := range srcs {
		toks = append(toks, s...)
		if len(toks) >= n {
			break
		}
	}
	toks = toks[:n]
	bg := nn.NewBatchGeneratorPaged(r, 1, 0, 0)
	var err error
	i := 0
	s := p.timed("nn.BatchGenerator.StepSegs/prefill", func() {
		slot, e := bg.Begin(fmt.Sprintf("perfbench/prefill/%d", i), n)
		i++
		if e != nil {
			err = e
			return
		}
		if _, e := bg.StepSegs([]nn.StepSeg{{Slot: slot, Tokens: toks}}); e != nil {
			err = e
		}
		bg.Release(slot)
	})
	p.vals["nn.prefill_chunk_ms"] = s.median()
	return err
}

// tileReader is the part of an analog tile the kernel probes call.
type tileReader interface {
	Rows() int
	Cols() int
	MVMBatchInto(coef float32, dst, xs *tensor.Matrix, r *rng.Rand)
}

// randMatrix fills a rows×cols matrix with uniform values in [-1, 1).
func randMatrix(r *rng.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	return m
}

// kernels times the analog layers, their tiles, the MAC kernel at the
// tiles' shapes and the noise generator of the served configuration.
func (p *prober) kernels(r *nn.Runner) {
	var ops []*analog.AnalogLinear
	var tiles []tileReader
	for _, spec := range r.Model().Linears() {
		op, ok := r.Linear(spec.Name).(*analog.AnalogLinear)
		if !ok {
			continue
		}
		op = op.WithNoiseScope("perfbench/kernels").(*analog.AnalogLinear)
		ops = append(ops, op)
		for _, row := range op.Tiles() {
			for _, t := range row {
				tiles = append(tiles, t)
			}
		}
	}
	if len(ops) == 0 {
		return
	}
	stream := ops[0].Config().NoiseStream
	data := rng.New(p.seed).Split("perfbench/kernels")
	p.counts["analog.AnalogLinear.ForwardInto/r1"] = fmt.Sprintf("layers=%d tiles=%d", len(ops), len(tiles))

	for _, rows := range []int{1, 16, 64} {
		xs := make([]*tensor.Matrix, len(ops))
		outs := make([]*tensor.Matrix, len(ops))
		for i, op := range ops {
			xs[i] = randMatrix(data, rows, op.InDim())
			outs[i] = tensor.New(rows, op.OutDim())
		}
		name := fmt.Sprintf("analog.AnalogLinear.ForwardInto/r%d", rows)
		s := p.timed(name, func() {
			for i, op := range ops {
				op.ForwardInto(outs[i], xs[i])
			}
		})
		p.vals[fmt.Sprintf("analog.linear_us_r%d", rows)] = s.median() * 1e3 / float64(rows)
	}

	for _, rows := range []int{16, 64} {
		xs := make([]*tensor.Matrix, len(tiles))
		dsts := make([]*tensor.Matrix, len(tiles))
		for i, t := range tiles {
			xs[i] = randMatrix(data, rows, t.Rows())
			dsts[i] = tensor.New(rows, t.Cols())
		}
		noise := rng.NewStream(p.seed, stream)
		s := p.timed(fmt.Sprintf("analog.Tile.MVMBatchInto/r%d", rows), func() {
			for i, t := range tiles {
				t.MVMBatchInto(1, dsts[i], xs[i], noise)
			}
		})
		p.vals[fmt.Sprintf("analog.tile_read_us_r%d", rows)] = s.median() * 1e3 / float64(rows*len(tiles))
	}

	const macRows = 64
	as := make([]*tensor.Matrix, len(tiles))
	bs := make([]*tensor.Matrix, len(tiles))
	outs := make([]*tensor.Matrix, len(tiles))
	flops := 0.0
	for i, t := range tiles {
		as[i] = randMatrix(data, macRows, t.Rows())
		bs[i] = randMatrix(data, t.Rows(), t.Cols())
		outs[i] = tensor.New(macRows, t.Cols())
		flops += 2 * macRows * float64(t.Rows()*t.Cols())
	}
	s := p.timed("tensor.MatMulSerialInto", func() {
		for i := range tiles {
			tensor.MatMulSerialInto(outs[i], as[i], bs[i])
		}
	})
	p.vals["tensor.mac_gflops"] = flops / (s.median() * 1e6)

	const normals = 4096
	buf := make([]float32, normals)
	noise := rng.NewStream(p.seed, stream)
	s = p.timed("rng.Rand.FillNormalAdd", func() { noise.FillNormalAdd(buf, 1e-3) })
	p.vals["rng.normal_ns"] = s.median() * 1e6 / normals
}
