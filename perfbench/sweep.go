package main

import (
	"fmt"
	"runtime"
	"time"

	"nora/internal/analog"
	"nora/internal/core"
	"nora/internal/engine"
	"nora/internal/fleet"
	"nora/internal/harness"
	"nora/internal/model"
)

// The sweep workload is one pass of nora-eval's grid per iteration: Fig.
// 5(a) over the OPT-class models, then Table III over the LLaMA/Mistral
// ones, each model under digital, naive and NORA, on a fresh engine so
// every pass pays all deploy builds and calibrations.
type sweepExpect struct {
	EvalSize int        `json:"eval_size"`
	Rows     []sweepRow `json:"rows"`
}

type sweepRow struct {
	Model   string  `json:"model"`
	Digital float64 `json:"digital"`
	Naive   float64 `json:"naive"`
	NORA    float64 `json:"nora"`
}

type sweep struct {
	opt, other []*harness.Workload
	want       map[string]sweepRow
	last       *engine.Engine // engine of the latest pass
}

func setupSweep(uint64) (instance, error) {
	opt, err := harness.LoadZoo(modelDir, model.OPTSpecs(), harness.EvalSize, harness.CalibSize)
	if err != nil {
		return nil, err
	}
	other, err := harness.LoadZoo(modelDir, model.OtherSpecs(), harness.EvalSize, harness.CalibSize)
	if err != nil {
		return nil, err
	}
	return &sweep{opt: opt, other: other}, nil
}

// fresh copies the workloads without their memoized digital accuracy and
// calibration, so a pass recomputes both.
func fresh(ws []*harness.Workload) []*harness.Workload {
	out := make([]*harness.Workload, len(ws))
	for i, w := range ws {
		out[i] = &harness.Workload{Spec: w.Spec, Model: w.Model, Eval: w.Eval, Calib: w.Calib}
	}
	return out
}

// passResult is one pass: its rows, sequences scored and timings.
type passResult struct {
	rows        []harness.AccuracyRow
	keys        []string
	seqs        int64
	total, head time.Duration // whole pass; first table (Fig. 5a)
	stats       engine.Stats
	analogToks  int64
}

func (s *sweep) pass(tr *tracer, parent int64) passResult {
	cfg := analog.PaperPreset()
	sp := tr.begin("sweep.pass", parent, 0)
	eng := engine.New(engine.Config{})
	var res passResult
	for i, fam := range [][]*harness.Workload{s.opt, s.other} {
		ws := fresh(fam)
		fsp := tr.begin("harness.OverallAccuracy", sp.id, 0)
		rows := harness.OverallAccuracy(eng, ws, cfg)
		fsp.end()
		if i == 0 {
			res.head = time.Since(sp.start)
		}
		for k, w := range ws {
			res.keys = append(res.keys, w.Spec.Key)
			res.rows = append(res.rows, rows[k])
			for _, seq := range w.Eval {
				if len(seq) >= 2 {
					res.analogToks += 2 * int64(len(seq)-1) // naive + NORA
				}
			}
		}
	}
	res.total = sp.end()
	res.stats = eng.Stats()
	res.seqs = res.stats.Sequences
	s.last = eng
	return res
}

// check records one outcome per model: its row must equal the pinned one
// exactly.
func (s *sweep) check(p passResult, t *tally) {
	for i, key := range p.keys {
		row, want := p.rows[i], s.want[key]
		if row.Digital == want.Digital && row.Naive == want.Naive && row.NORA == want.NORA {
			t.record(outOK)
		} else {
			t.record(outWrong)
		}
	}
}

func (s *sweep) first() error {
	var want sweepExpect
	if err := loadExpect("sweep", &want); err != nil {
		return err
	}
	if want.EvalSize != harness.EvalSize {
		return fmt.Errorf("sweep: pinned table has eval size %d, want %d", want.EvalSize, harness.EvalSize)
	}
	s.want = make(map[string]sweepRow, len(want.Rows))
	for _, row := range want.Rows {
		s.want[row.Model] = row
	}
	if len(s.want) != len(s.opt)+len(s.other) {
		return fmt.Errorf("sweep: %d pinned rows for %d models", len(s.want), len(s.opt)+len(s.other))
	}
	return nil
}

func (s *sweep) pin() error {
	p := s.pass(nil, 0)
	want := sweepExpect{EvalSize: harness.EvalSize}
	for i, key := range p.keys {
		r := p.rows[i]
		want.Rows = append(want.Rows, sweepRow{Model: key, Digital: r.Digital, Naive: r.Naive, NORA: r.NORA})
	}
	return saveExpect("sweep", want)
}

// load runs whole passes back to back until the window ends (at least
// one). There is no warm-up: every pass starts from a fresh engine, and
// from a collected heap, as a fresh nora-eval process would. The grid is
// nora-eval's, so the seed changes no input of this workload.
func (s *sweep) load(w window, tr *tracer, parent int64) *measure {
	m := &measure{}
	var passes, heads samples
	var seqs int64
	var busy time.Duration
	var agg engine.Stats
	var analogToks int64
	for n := 0; n == 0 || time.Now().Before(w.end); n++ {
		runtime.GC()
		p := s.pass(tr, parent)
		s.check(p, &m.tally)
		passes.add(p.total)
		heads.add(p.head)
		seqs += p.seqs
		busy += p.total
		addStats(&agg, p.stats)
		analogToks += p.analogToks
	}
	m.rate = float64(seqs) / busy.Seconds()
	// A run holds two or three passes, so the typical pass is their mean
	// (a nearest-rank median of two would be the faster one).
	m.p50, m.p95, m.ttft = passes.mean(), passes.tail(0.95), heads.mean()
	m.report = []reportLine{
		rateLine("seq_s", m.rate, "seq/s", seqs),
		{name: "pass_ms", unit: "ms", value: m.p50, note: fmt.Sprintf("(mean of %d passes)", len(passes))},
		{name: "first_table_ms", unit: "ms", value: m.ttft, note: fmt.Sprintf("(mean of %d passes)", len(heads))},
	}
	m.engine = &agg
	m.passes = len(passes)
	m.forwards = analogToks
	m.ops = agg.Counters
	return m
}

// addStats accumulates the engine counters the per-layer metrics read.
func addStats(dst *engine.Stats, s engine.Stats) {
	dst.DeployBuilds += s.DeployBuilds
	dst.DeployTime += s.DeployTime
	dst.EvalTime += s.EvalTime
	dst.Sequences += s.Sequences
	dst.Tokens += s.Tokens
	dst.Mallocs += s.Mallocs
	dst.Counters.Add(s.Counters)
}

// probes runs the per-layer calls on opt-c3's NORA deployment from the
// last pass (a cache hit), the model the predict workload serves.
func (s *sweep) probes() (probeSet, error) {
	var w *harness.Workload
	for _, cand := range s.opt {
		if cand.Spec.Key == predictModel {
			w = cand
		}
	}
	if w == nil || s.last == nil {
		return probeSet{}, fmt.Errorf("sweep: no %s deployment to probe", predictModel)
	}
	req := w.Request(core.DeployAnalogNORA, analog.PaperPreset(), core.Options{}, "")
	ctxs := contexts(w.Eval)
	return probeSet{
		runner:   s.last.Deploy(req).Runner(),
		group:    fleet.New(s.last, fleet.Config{}).Deploy(req),
		calib:    append(append([]*harness.Workload(nil), s.opt...), s.other...),
		contexts: ctxs,
		prompts:  ctxs[:chatClients],
		prefill:  ctxs,
	}, nil
}

func (s *sweep) close() {}
