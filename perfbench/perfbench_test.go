package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"bitpacker"
	"bitpacker/internal/shard/worker"
)

// The fork lane re-executes the test binary as its worker processes.
func TestMain(m *testing.M) {
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	os.Exit(m.Run())
}

func testOptions(t *testing.T) *options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &options{seed: 3, seconds: 0.4, out: t.TempDir(), exe: exe, setupReps: 1}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program registers %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEndSpecs[i].Name || m.Unit != endToEndSpecs[i].Unit {
			t.Errorf("end-to-end %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEndSpecs[i].Name, endToEndSpecs[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayerSpecs))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayerSpecs[i].Name || m.Unit != perLayerSpecs[i].Unit {
			t.Errorf("per-layer %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayerSpecs[i].Name, perLayerSpecs[i].Unit)
		}
	}
}

// checkLine asserts a contract line reports exactly specs, with units.
func checkLine(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("metric %s missing", s.Name)
			continue
		}
		if v.Unit != s.Unit {
			t.Errorf("metric %s unit %q, want %q", s.Name, v.Unit, s.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", s.Name, v.Value)
		}
	}
}

// A minimal-length run of every workload, untraced and traced, reports
// every named metric with its unit, checks every output and fails none.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := testOptions(t)
			rep, err := execute(workloads[name], o, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 1 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", rep.res.Correct, rep.res.Attempted, rep.res.Failed)
			}
			checkLine(t, rep.res, endToEndSpecs)
			if got := rep.info["latency_tail_pct"]; got != workloads[name].tailPct {
				t.Errorf("a %d-sample run reports the tail at p%v, want the workload's fixed p%v", rep.info["samples"], got, workloads[name].tailPct)
			}
			for _, s := range endToEndSpecs {
				if rep.res.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", s.Name, rep.res.Metrics[s.Name].Value)
				}
			}

			rep, err = execute(workloads[name], o, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d", rep.res.Correct, rep.res.Attempted, rep.res.Failed)
			}
			checkLine(t, rep.res, perLayerSpecs)
			total := rep.res.Metrics["unattributed_share"].Value
			for _, l := range cpuLayers {
				total += rep.res.Metrics[l+".cpu_share"].Value
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("cpu shares plus unattributed_share sum to %v, want 1", total)
			}
			// The profile parser reads what runtime/pprof writes: eval_w28
			// is kernel-bound by design (about 0.8 in ntt+nt normally; race
			// instrumentation dilutes it to about 0.2).
			if kernels := rep.res.Metrics["ntt.cpu_share"].Value + rep.res.Metrics["nt.cpu_share"].Value; name == "eval_w28" && kernels < 0.1 {
				t.Errorf("eval_w28 spends %.2f of its CPU in ntt+nt; the attribution is off", kernels)
			}
		})
	}
}

// A reference value that is deliberately wrong must make every workload
// count failures and report the run as incorrect.
func TestWrongReferenceFails(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := testOptions(t)
			o.perturb = 0.5
			rep, err := execute(workloads[name], o, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.res.Correct || rep.res.Failed == 0 {
				t.Fatalf("wrong reference went unnoticed: correct=%v attempted=%d failed=%d", rep.res.Correct, rep.res.Attempted, rep.res.Failed)
			}
			if rep.res.Failed != rep.res.Attempted {
				t.Errorf("%d of %d operations failed, want all", rep.res.Failed, rep.res.Attempted)
			}
		})
	}
}

// Span self times account for each operation's wall time: per op, the
// self times of all its spans sum to the root span, and the root span
// matches the latency the loop measured around it.
func TestSpanSelfTimesAccountForOpWallTime(t *testing.T) {
	o := testOptions(t)
	sys, err := workloads["bootstrap_w61"].build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if err := sys.prepare(o); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ph, err := sys.phase(500*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(tr.closed())
	if sum.roots != len(ph.lat) {
		t.Fatalf("%d root spans for %d measured operations", sum.roots, len(ph.lat))
	}
	var opsIDs []int64
	for op := range sum.rootDur {
		opsIDs = append(opsIDs, op)
	}
	sort.Slice(opsIDs, func(i, j int) bool { return opsIDs[i] < opsIDs[j] })
	for i, op := range opsIDs {
		if got, want := sum.selfSum[op], sum.rootDur[op]; got != want {
			t.Errorf("op %d: span self times sum to %d ns, root span is %d ns", op, got, want)
		}
		wallNs := ph.lat[i] * 1e6
		if d := math.Abs(float64(sum.rootDur[op]) - wallNs); d > 0.01*wallNs+2e5 {
			t.Errorf("op %d: root span %d ns, measured wall %.0f ns", op, sum.rootDur[op], wallNs)
		}
	}
	if sum.self["api.run_pipeline"] <= 0 || sum.total["pipeline.stage.refresh"] <= 0 {
		t.Errorf("pipeline spans missing: %v", sum.total)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

// The tail is the workload's fixed percentile at any sample count: a
// shorter or slower run reports the same percentile, not a lower one.
func TestTailPercentileIsFixed(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{1000, 95, 950}, {200, 90, 180}, {169, 90, 153}, {48, 75, 36}, {37, 75, 28}, {12, 95, 12}, {1, 75, 1},
	} {
		if got := tail(xs[:c.n], c.pct); got != c.want {
			t.Errorf("n=%d: p%v = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
}

// Work run under phase.checking is charged to bench in the CPU profile,
// whatever library code it runs, and its cost is kept apart.
func TestCheckingChargesBench(t *testing.T) {
	ctx, err := bitpacker.New(bitpacker.Config{Scheme: bitpacker.BitPacker, LogN: 10, Levels: 2, ScaleBits: 40, WordBits: 61, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, ctx.Slots())
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	ph := &phase{}
	ph.checking(func() {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			ctx.EncryptReal(x)
		}
	})
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if share := p.cpuShares()["bench"]; share < 0.8 {
		t.Errorf("bench share %.2f of a profile spent checking, want nearly all", share)
	}
	if ph.checks.allocs <= 0 || ph.checks.bytes <= 0 {
		t.Errorf("check cost not recorded: %+v", ph.checks)
	}
}

func TestClassifyChargesLeafLayer(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"bitpacker/internal/nt.MulModShoup", "bitpacker/internal/ntt.(*Table).Forward"}, "nt"},
		{[]string{"runtime.memmove", "bitpacker/internal/ring.(*Poly).Copy"}, "ring"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "bitpacker/internal/ring.NewPoly"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "bitpacker/internal/pipeline.(*DirStore).Put"}, "syscall"},
		{[]string{"math/big.nat.mul", "bitpacker/internal/rns.NewConv"}, "rns"},
		{[]string{"runtime.memmove", "runtime.systemstack"}, "unattributed"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestRefusesLibraryEnvironmentKnobs(t *testing.T) {
	for _, k := range refusedEnv {
		t.Run(k, func(t *testing.T) {
			t.Setenv(k, "1")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", "eval_w28", "-seconds", "1", "-out", t.TempDir()}, &stdout, &stderr)
			if code == 0 || stdout.Len() != 0 {
				t.Fatalf("exit %d, stdout %q: want a refusal with no result", code, stdout.String())
			}
		})
	}
}

func TestStampsNameHostToolchainAndInputs(t *testing.T) {
	st := stamps("eval_w28", 7, false)
	for _, k := range []string{"host_cpus", "gomaxprocs", "go_version", "commit", "seed"} {
		if _, ok := st[k]; !ok {
			t.Errorf("stamp %s missing", k)
		}
	}
	if st["host_cpus"] != runtime.NumCPU() || st["seed"] != uint64(7) {
		t.Errorf("stamps %v", st)
	}
}
