// Command perfbench is the repository benchmark: it drives the BitPacker
// library through its public entry points on a fixed set of workloads,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output.
//
//	perfbench -workload eval_w28 -seed 1 -seconds 24 -trace 0
//
// Build and run it through run.sh from the repository root, which keeps
// the Go build cache under .bench_build/. See README.md for the
// workloads, the metric table and how each per-layer metric maps to an
// end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bitpacker/internal/shard/worker"
)

// refusedEnv lists environment variables that silently change what the
// library executes (engine width, the staged kernel twins, invariant
// checks, fault injection). A run under any of them would not measure
// the configuration the workloads name.
var refusedEnv = []string{
	"BITPACKER_WORKERS",
	"BITPACKER_UNFUSED",
	"BITPACKER_CHECK_INVARIANTS",
	"BITPACKER_CHAOS_PROC",
	"BITPACKER_CHAOS_NET",
}

func main() {
	// The fork lane of the shard workloads re-executes this binary as its
	// worker processes.
	if worker.IsWorker() {
		os.Exit(worker.Main())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 24, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := &options{seed: *seed, seconds: *seconds, out: *out, exe: exe, setupReps: 3}
	rep, err := execute(w, o, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	stamp := stamps(*name, *seed, *trace == 1)
	for k, v := range rep.info {
		stamp[k] = v
	}
	if err := writeRecord(*out, *name, *seed, *trace, stamp, rep.res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stampJSON, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "# %s\n", stampJSON)
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func checkEnv() error {
	for _, k := range refusedEnv {
		if v, ok := os.LookupEnv(k); ok {
			return fmt.Errorf("refusing to run with %s=%q set: unset it so the workloads measure their named configuration", k, v)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stamps identifies the host, toolchain, code and inputs of a run.
func stamps(name string, seed uint64, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"host_cpus":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commitID("."),
	}
}

// writeRecord keeps the full record of a run (stamps, workload details
// and the contract line) next to the spans and profiles.
func writeRecord(dir, name string, seed uint64, trace int, stamp map[string]any, res result) error {
	rec := map[string]any{"stamp": stamp, "result": res}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
