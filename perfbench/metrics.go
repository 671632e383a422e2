package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// metricSpec names one reported metric and its unit. The lists below
// are the benchmark's contract; BENCHMARK.json repeats them (the
// self-test keeps the two in step).
type metricSpec struct {
	Name string
	Unit string
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"precision_bits", "bits"},
	{"peak_rss_mb", "MB"},
}

// cpuLayers are the buckets of the CPU-profile attribution, in report
// order; every sample lands in exactly one of them or in
// unattributed_share.
var cpuLayers = []string{"api", "ckks", "ring", "ntt", "rns", "nt", "engine", "pipeline", "serve", "shard", "bench", "gc", "sched", "syscall"}

var perLayerSpecs = func() []metricSpec {
	specs := []metricSpec{
		{"api.apply_ms", "ms"},
		{"api.rescale_ms", "ms"},
		{"api.mul_rescale_ms", "ms"},
		{"api.rotate_hoisted_ms", "ms"},
		{"api.add_ms", "ms"},
		{"api.decrypt_ms", "ms"},
		{"api.refresh_ms", "ms"},
		{"pipeline.stage_ms.exhaust", "ms"},
		{"pipeline.stage_ms.refresh", "ms"},
		{"pipeline.stage_ms.finish", "ms"},
		{"pipeline.checkpoint_ms", "ms"},
		{"pipeline.checkpoint_bytes", "bytes"},
		{"ntt.forward_ns", "ns"},
		{"ntt.inverse_ns", "ns"},
		{"ntt.mulcoeffs_ns", "ns"},
		{"ring.permute_ns", "ns"},
		{"rns.conv_ns", "ns"},
		{"rns.exactdiv_ns", "ns"},
		{"engine.dispatch_ns", "ns"},
	}
	for _, l := range cpuLayers {
		specs = append(specs, metricSpec{l + ".cpu_share", "fraction"})
	}
	specs = append(specs, []metricSpec{
		{"unattributed_share", "fraction"},
		{"gc.allocs_per_op", "count"},
		{"gc.bytes_per_op", "bytes"},
		{"gc.metrics_cpu_share", "fraction"},
		{"keycache.hits", "count"},
		{"keycache.misses", "count"},
		{"keycache.resident_bytes", "bytes"},
		{"serve.light_p50_ms", "ms"},
		{"serve.nominal_p50_ms", "ms"},
		{"serve.nominal_tail_ms", "ms"},
		{"serve.batch_mean", "count"},
		{"serve.rejected", "count"},
		{"serve.fallbacks", "count"},
		{"serve.backlog_peak", "count"},
		{"serve.generator_late_ms", "ms"},
		{"serve.unmarshal_ms", "ms"},
		{"serve.marshal_ms", "ms"},
		{"serve.http_ms", "ms"},
		{"shard.serial_job_ms", "ms"},
		{"shard.tcp_job_ms", "ms"},
		{"shard.fork_job_ms", "ms"},
		{"shard.overhead_ms.tcp", "ms"},
		{"shard.overhead_ms.fork", "ms"},
		{"shard.worker_ctx_ms", "ms"},
		{"shard.encode_ms", "ms"},
		{"shard.decode_ms", "ms"},
		{"shard.put_ms", "ms"},
		{"shard.spawns", "count"},
		{"shard.redispatches", "count"},
		{"shard.heartbeat_misses", "count"},
		{"shard.reconnects", "count"},
		{"shard.degraded", "count"},
		{"trace.op_self_share", "fraction"},
		{"trace.overhead_frac", "fraction"},
	}...)
	return specs
}()

// median returns the middle value (mean of the two middles for an even
// count) of xs; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// tail returns the nearest-rank value at percentile pct of xs. Each
// workload fixes its percentile (workload.tailPct) so that its slowest
// observed run still leaves well over ten samples beyond it; it is never
// derived from the run, so a slower run cannot report a lower percentile
// under the same metric name.
func tail(xs []float64, pct float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	// Nearest rank (1-based); the epsilon keeps pct*n/100 exact for
	// integral products.
	rank := min(max(int(math.Ceil(pct*float64(n)/100-1e-9)), 1), n)
	return s[rank-1]
}

// precisionBits converts a maximum absolute error to bits.
func precisionBits(maxErr float64) float64 {
	if maxErr <= 0 {
		maxErr = math.SmallestNonzeroFloat64
	}
	return -math.Log2(maxErr)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commitID names the code under test: the git HEAD when the tree is a
// checkout with its .git directory, else a digest of the Go sources
// (benchmark checkouts are plain file trees).
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
