// Command perfbench is the repository's benchmark. It drives the real
// serve.Server in-process (chat, predict) and the harness sweep path
// (sweep), checks every output against the expectations pinned in
// perfbench/expected, and prints every metric by name with its unit.
//
// Build and run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload chat --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics from a
// separate traced run (plus the tracing overhead) and writes the spans to
// .bench_out/. The last line of standard output is the result as one JSON
// object. The exit code is 0 only when every output was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"

	"nora/internal/analog"
	"nora/internal/engine"
	"nora/internal/serve"
)

// instance is one set-up workload: a loaded model behind a server (or the
// loaded zoo, for sweep), ready for load.
type instance interface {
	// first sends the first request and checks its reply; set-up time ends
	// when it returns.
	first() error
	// load drives the workload for the window, checking every reply.
	// Spans go to tr (nil when untraced) under parent.
	load(w window, tr *tracer, parent int64) *measure
	// probes names what the per-layer calls run on after a traced load.
	probes() (probeSet, error)
	// pin regenerates the workload's pinned outputs.
	pin() error
	close()
}

type workloadDef struct {
	setup func(seed uint64) (instance, error)
	// warm is the unmeasured start of each load phase, so that lazily
	// grown scratch, pools and batch queues reach their steady state.
	warm time.Duration
}

var workloads = map[string]workloadDef{
	"chat":    {setupChat, 2 * time.Second},
	"predict": {setupPredict, time.Second},
	"sweep":   {setupSweep, 0},
}

// setupRepeats is the number of set-ups per end-to-end run; setup_s is
// their median.
const setupRepeats = 5

// measure is what one load phase observed.
type measure struct {
	tally tally
	rate  float64 // workload units per second over the window
	// p50, p95 and ttft are the workload's latency figures in ms (see
	// endToEnd); queue holds predict's server-reported queue waits.
	p50, p95, ttft float64
	queue          samples
	// forwards counts tokens pushed through the analog layers; ops are
	// the analog hardware counters over the same phase.
	forwards int64
	ops      analog.OpCounters
	serve    serveCounters
	engine   *engine.Stats // sweep: engine counters summed over passes
	passes   int
	report   []reportLine
}

// serveCounters are the /statz deltas of one load phase.
type serveCounters struct {
	predictBatches, predictRequests int64
	genSteps, genTokens, genPrefill int64
	genTime                         time.Duration
	rejected                        int64
}

func serveDelta(a, b serve.Statz) serveCounters {
	return serveCounters{
		predictBatches:  b.Batch.Batches - a.Batch.Batches,
		predictRequests: b.Batch.Requests - a.Batch.Requests,
		genSteps:        b.Engine.GenSteps - a.Engine.GenSteps,
		genTokens:       b.Engine.GenTokens - a.Engine.GenTokens,
		genPrefill:      b.Engine.GenPrefillTokens - a.Engine.GenPrefillTokens,
		genTime:         b.Engine.GenTime - a.Engine.GenTime,
		rejected:        b.Batch.QueueFull - a.Batch.QueueFull + b.Gen.QueueFull - a.Gen.QueueFull,
	}
}

// servedOps sums the analog counters of every served replica.
func servedOps(srv *serve.Server) analog.OpCounters {
	var o analog.OpCounters
	for _, g := range srv.Fleet().Groups() {
		for _, r := range g.Replicas() {
			o.Add(r.OpCounters())
		}
	}
	return o
}

func opsDelta(a, b analog.OpCounters) analog.OpCounters {
	return analog.OpCounters{
		MVMs:      b.MVMs - a.MVMs,
		DACConvs:  b.DACConvs - a.DACConvs,
		ADCConvs:  b.ADCConvs - a.ADCConvs,
		CellReads: b.CellReads - a.CellReads,
		BMRetries: b.BMRetries - a.BMRetries,
	}
}

func outcomeName(o outcome) string {
	return [...]string{"ok", "rejected (429)", "error", "wrong output"}[o]
}

// reportLine is one human-readable metric of the report.
type reportLine struct {
	name, unit string
	value      float64
	note       string
}

func rateLine(name string, v float64, unit string, n int64) reportLine {
	return reportLine{name: name, unit: unit, value: v, note: fmt.Sprintf("(%d units)", n)}
}

// quantLine reports a nearest-rank quantile with its sample count and
// whether enough samples lie beyond it.
func quantLine(name string, s samples, q float64) reportLine {
	v, ok := s.quantile(q)
	note := fmt.Sprintf("(n=%d)", len(s))
	if !ok && q != 0.5 {
		note = fmt.Sprintf("(n=%d; fewer than %d samples beyond, not a valid tail)", len(s), minBeyond)
	}
	return reportLine{name: name, unit: "ms", value: v, note: note}
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics. Each is defined on every workload;
// see perfbench/README.md for what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ttft_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the --trace 1 metrics. A layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"serve.predict_batch_mean", "req"},
	{"serve.predict_queue_ms_p50", "ms"},
	{"serve.gen_batch_mean", "rows"},
	{"serve.gen_step_ms", "ms"},
	{"serve.prefill_tokens_per_step", "tok"},
	{"serve.rejected", "count"},
	{"fleet.acquire_us", "us"},
	{"engine.deploy_builds", "count"},
	{"engine.deploy_ms", "ms"},
	{"engine.eval_tok_s", "tok/s"},
	{"engine.allocs_per_seq", "count"},
	{"core.calibrate_ms", "ms"},
	{"nn.predict_ms", "ms"},
	{"nn.decode_step_ms", "ms"},
	{"nn.prefill_chunk_ms", "ms"},
	{"analog.linear_us_r1", "us"},
	{"analog.linear_us_r16", "us"},
	{"analog.linear_us_r64", "us"},
	{"analog.tile_read_us_r16", "us"},
	{"analog.tile_read_us_r64", "us"},
	{"analog.mvms_per_token", "count"},
	{"analog.adc_convs_per_token", "count"},
	{"analog.bm_retry_frac", "ratio"},
	{"rng.normal_ns", "ns"},
	{"tensor.mac_gflops", "GFLOP/s"},
	{"trace.overhead_rate_pct", "%"},
	{"trace.overhead_latency_p50_pct", "%"},
}

// e2eValues derives the end-to-end metrics from a load phase.
func e2eValues(m *measure) map[string]float64 {
	return map[string]float64{
		"rate_per_s":     m.rate,
		"latency_p50_ms": m.p50,
		"latency_p95_ms": m.p95,
		"ttft_p50_ms":    m.ttft,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: chat, predict or sweep")
	seed := fs.Uint64("seed", 1, "workload seed: picks the chat prompts and the predict order")
	seconds := fs.Int("seconds", 20, "length of each measured load phase, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	pin := fs.Bool("pin", false, "regenerate the workload's pinned outputs in "+expectDir+" and exit")
	cpuprofile := fs.String("cpuprofile", "", "with --trace 0, write a CPU profile of the load phase to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload chat|predict|sweep, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(modelDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of a checkout: %v\n", err)
		return 1
	}
	writeHeader(stdout, *name, *seed, *seconds, *trace)
	if *pin {
		inst, err := def.setup(*seed)
		if err == nil {
			err = inst.pin()
			inst.close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pinned %s\n", expectPath(*name))
		return 0
	}
	length := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = runE2E(stdout, def, *seed, length, *cpuprofile)
	} else {
		res, err = runTraced(stdout, def, *name, *seed, length)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d attempts failed or mismatched the pinned outputs\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// setUp builds a fresh instance and returns it with the time until its
// first reply was checked.
func setUp(def workloadDef, seed uint64) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := def.setup(seed)
	if err != nil {
		return nil, 0, err
	}
	if err := inst.first(); err != nil {
		inst.close()
		return nil, 0, err
	}
	return inst, time.Since(t0), nil
}

func runE2E(w io.Writer, def workloadDef, seed uint64, length time.Duration, cpuprofile string) (*result, error) {
	var setups samples
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		var d time.Duration
		var err error
		if inst, d, err = setUp(def, seed); err != nil {
			return nil, err
		}
		setups.add(d)
	}
	stop, err := startProfile(cpuprofile)
	if err != nil {
		inst.close()
		return nil, err
	}
	m := inst.load(newWindow(def.warm, length), nil, 0)
	err = stop()
	inst.close()
	if err != nil {
		return nil, err
	}

	vals := e2eValues(m)
	vals["setup_s"] = setups.median() / 1e3
	vals["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintln(w, "== end-to-end (untraced)")
	writeReport(w, m)
	fmt.Fprintf(w, "%-22s %14.4f %-7s (median of %d)\n", "setup_s", vals["setup_s"], "s", setupRepeats)
	fmt.Fprintf(w, "%-22s %14.4f %-7s\n", "peak_rss_mb", vals["peak_rss_mb"], "MB")
	return newResult(m, vals, endToEnd), nil
}

func runTraced(w io.Writer, def workloadDef, name string, seed uint64, length time.Duration) (*result, error) {
	inst, _, err := setUp(def, seed)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	untraced := inst.load(newWindow(def.warm, length), nil, 0)

	tr := newTracer()
	root := tr.begin("load", 0, 0)
	traced := inst.load(newWindow(def.warm, length), tr, root.id)
	root.end()

	layers := tr.begin("layers", 0, 0)
	p := &prober{tr: tr, root: layers.id, seed: seed, vals: map[string]float64{}, counts: map[string]string{}}
	for _, d := range perLayer {
		p.vals[d.name] = 0
	}
	set, err := inst.probes()
	if err == nil {
		err = p.run(set, traced)
	}
	layers.end()
	if err != nil {
		return nil, err
	}

	un, tv := e2eValues(untraced), e2eValues(traced)
	p.vals["trace.overhead_rate_pct"] = 100 * ratio(un["rate_per_s"]-tv["rate_per_s"], un["rate_per_s"])
	p.vals["trace.overhead_latency_p50_pct"] = 100 * ratio(tv["latency_p50_ms"]-un["latency_p50_ms"], un["latency_p50_ms"])

	fmt.Fprintln(w, "== traced load")
	writeReport(w, traced)
	fmt.Fprintln(w, "== tracing overhead (traced - untraced)")
	for _, d := range endToEnd {
		if _, ok := un[d.name]; ok {
			fmt.Fprintf(w, "%-22s untraced %12.4f  traced %12.4f  diff %+10.4f %s\n", d.name, un[d.name], tv[d.name], tv[d.name]-un[d.name], d.unit)
		}
	}
	fmt.Fprintln(w, "== per-layer spans")
	writeTable(w, tr.table(p.counts))
	fmt.Fprintln(w, "== per-layer metrics")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, p.vals[d.name], d.unit)
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)

	res := newResult(untraced, p.vals, perLayer)
	res.Attempted += traced.tally.attempted
	res.Failed += traced.tally.failed()
	res.Correct = res.Failed == 0
	return res, nil
}

func newResult(m *measure, vals map[string]float64, defs []metricDef) *result {
	res := &result{
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func writeReport(w io.Writer, m *measure) {
	t := &m.tally
	for _, l := range m.report {
		fmt.Fprintf(w, "%-22s %14.4f %-7s %s\n", l.name, l.value, l.unit, l.note)
	}
	fmt.Fprintf(w, "%-22s %14.4f %-7s (attempted %d: ok %d, rejected %d, errors %d, wrong %d)\n",
		"fail_frac", ratio(float64(t.failed()), float64(t.attempted)), "ratio", t.attempted, t.ok, t.rejected, t.err, t.wrong)
}

// startProfile starts a CPU profile into path (none when path is empty)
// and returns the function that stops and saves it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// peakRSSMB is the peak resident set of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
