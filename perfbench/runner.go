package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// options are one run's settings.
type options struct {
	seed      uint64
	seconds   float64
	out       string  // spans, profiles, records and exchange directories
	exe       string  // this binary, the fork lane's worker command
	setupReps int     // set-ups timed for setup_s (the last one is used)
	perturb   float64 // added to every reference value (self-test only)
}

const (
	setupBudget  = 2 * time.Second
	maxSetupReps = 25
)

// workload is one named benchmark configuration.
type workload struct {
	name string
	// tailPct is the percentile latency_tail_ms reports, fixed per
	// workload: the slowest observed run still leaves well over ten
	// samples beyond it.
	tailPct float64
	// build sets the system up: everything a user pays before the first
	// operation. It is timed for setup_s.
	build func(o *options) (system, error)
}

// system is one set-up instance of a workload.
type system interface {
	// prepare makes the seeded inputs and their references (untimed).
	prepare(o *options) error
	// phase drives the workload for d and checks every output, tracing
	// into tr when it is non-nil.
	phase(d time.Duration, tr *tracer) (*phase, error)
	// layers adds the workload's probes and counters to m; ph and sum
	// are the traced phase and its spans.
	layers(m map[string]float64, ph *phase, sum spanSummary) error
	close()
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	lat        []float64 // ms per measured operation
	attempted  int
	failed     int
	served     int             // every operation run, warm-ups included
	throughput float64         // operations per second
	maxErr     float64         // largest absolute error of any checked output
	checks     runtimeCounters // runtime cost of the benchmark's own checks
	extra      map[string]float64
}

// The pprof label that marks the benchmark's own checking work; the CPU
// profile attribution charges labelled samples to bench whatever code
// they run.
const (
	checkLabelKey   = "perfbench"
	checkLabelValue = "check"
)

var checkLabels = pprof.Labels(checkLabelKey, checkLabelValue)

// checking runs f, a check of the system's outputs, under checkLabels
// and adds its allocation and CPU cost to p.checks, so that neither the
// CPU shares nor the gc figures count it as library work. Goroutines f
// starts inherit the labels. It returns f's wall time.
func (p *phase) checking(f func()) time.Duration {
	before := readRuntimeMetrics()
	t0 := time.Now()
	pprof.Do(context.Background(), checkLabels, func(context.Context) { f() })
	took := time.Since(t0)
	p.checks = p.checks.add(readRuntimeMetrics().sub(before))
	return took
}

func (p *phase) check(maxErr, tol float64) {
	if maxErr > p.maxErr || math.IsNaN(maxErr) {
		p.maxErr = maxErr
	}
	if !(maxErr <= tol) {
		p.failed++
	}
}

// report is a finished run: the contract line plus informational stamps.
type report struct {
	res  result
	info map[string]any
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func execute(w *workload, o *options, traced bool) (*report, error) {
	if o.setupReps < 1 {
		o.setupReps = 1
	}
	// Set up at least setupReps times, and more while the set-ups have
	// taken under setupBudget, so that cheap set-ups still give a steady
	// median.
	var setups []float64
	var spent time.Duration
	var sys system
	for len(setups) < o.setupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := w.build(o)
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		sys = s
	}
	defer sys.close()
	if err := sys.prepare(o); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	info := map[string]any{"setup_runs_s": setups}
	if !traced {
		ph, err := sys.phase(dur, nil)
		if err != nil {
			return nil, err
		}
		info["samples"] = len(ph.lat)
		info["latency_tail_pct"] = w.tailPct
		for k, v := range ph.extra {
			info[k] = v
		}
		vals := map[string]float64{
			"setup_s":          median(setups),
			"latency_p50_ms":   median(ph.lat),
			"latency_tail_ms":  tail(ph.lat, w.tailPct),
			"throughput_ops_s": ph.throughput,
			"precision_bits":   precisionBits(ph.maxErr),
			"peak_rss_mb":      peakRSSMB(),
		}
		return &report{res: contractLine(ph.attempted, ph.failed, endToEndSpecs, vals), info: info}, nil
	}

	// Traced run: an untraced half for the reference latency and the
	// allocation counters, then a traced half with spans and a CPU profile.
	// The gc figures leave out the benchmark's checks and are per
	// operation served, warm-ups included.
	before := readRuntimeMetrics()
	plain, err := sys.phase(dur/2, nil)
	if err != nil {
		return nil, err
	}
	run := readRuntimeMetrics().sub(before).sub(plain.checks)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced2, err := sys.phase(dur/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for _, s := range perLayerSpecs {
		vals[s.Name] = 0
	}
	served := float64(plain.served)
	vals["gc.allocs_per_op"] = run.allocs / served
	vals["gc.bytes_per_op"] = run.bytes / served
	if run.cpuTotal > 0 {
		vals["gc.metrics_cpu_share"] = max(run.cpuGC, 0) / run.cpuTotal
	}
	vals["trace.overhead_frac"] = median(traced2.lat)/median(plain.lat) - 1

	sum := summarize(tr.closed())
	if sum.roots > 0 {
		vals["trace.op_self_share"] = float64(sum.rootSelf) / float64(sum.rootNs)
	}
	perOp := float64(sum.roots)
	for name, ns := range sum.total {
		if _, ok := vals[name+"_ms"]; ok && perOp > 0 {
			vals[name+"_ms"] = float64(ns) / 1e6 / perOp
		}
	}

	profile, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for l, share := range profile.cpuShares() {
		if l == "unattributed" {
			vals["unattributed_share"] = share
		} else {
			vals[l+".cpu_share"] = share
		}
	}
	if err := sys.layers(vals, traced2, sum); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}

	base := fmt.Sprintf("%s-seed%d", w.name, o.seed)
	if err := tr.write(filepath.Join(o.out, base+".spans.jsonl")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, base+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	info["samples"] = len(plain.lat) + len(traced2.lat)
	info["spans"] = len(tr.closed())
	res := contractLine(plain.attempted+traced2.attempted, plain.failed+traced2.failed, perLayerSpecs, vals)
	return &report{res: res, info: info}, nil
}

func contractLine(attempted, failed int, specs []metricSpec, vals map[string]float64) result {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res
}

type runtimeCounters struct {
	allocs, bytes, cpuGC, cpuTotal float64
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs + b.allocs, a.bytes + b.bytes, a.cpuGC + b.cpuGC, a.cpuTotal + b.cpuTotal}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return a.add(runtimeCounters{-b.allocs, -b.bytes, -b.cpuGC, -b.cpuTotal})
}

func readRuntimeMetrics() runtimeCounters {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return math.NaN()
	}
	return runtimeCounters{val(samples[0]), val(samples[1]), val(samples[2]), val(samples[3])}
}
