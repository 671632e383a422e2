package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bitpacker"
	"bitpacker/internal/pipeline"
	"bitpacker/internal/shard/worker"
)

// shard_job: one job at a time through Context.RunSharded — the
// 48-ciphertext, six-step program on RNS-CKKS at LogN 11 — on three lanes
// defined by the shape of the call, every one with its engines one wide:
//
//   - tcp (the measured loop): Addrs naming NumCPU loopback fleets hosted
//     in this process, standing for the whole run as a deployed
//     bpworker -listen fleet does;
//   - fork (traced runs): Workers = NumCPU, no Addrs; the supervisor
//     starts worker processes, and this binary is the worker command;
//   - serial: the program in-process, the reference both lanes must match
//     bit for bit.
//
// The loop runs a fixed number of jobs per measured second rather than
// until the time is up: a standing fleet's memory grows with every job it
// has served, so peak_rss_mb compares like with like across versions
// only when each run serves the same number of jobs. At about 0.55 s per
// job on a two-CPU host a run takes about its nominal time. The tail is
// p75, which leaves 12 of a 24 s run's 48 jobs beyond it.
func init() { register(&workload{name: "shard_job", tailPct: 75, build: buildShard}) }

const (
	shardCts           = 48
	shardBatches       = 2
	shardJobsPerSecond = 2
	forkJobs           = 3 // fork-lane jobs timed in a traced run
)

// shardJobs is the number of measured jobs in a stretch of nominal
// length d.
func shardJobs(d time.Duration) int { return max(1, int(d.Seconds()*shardJobsPerSecond)) }

var shardProgram = []bitpacker.ShardStep{
	{Op: bitpacker.ShardOpSquare},
	{Op: bitpacker.ShardOpScale, Arg: 1.25},
	{Op: bitpacker.ShardOpOffset, Arg: 0.125},
	{Op: bitpacker.ShardOpSquare},
	{Op: bitpacker.ShardOpNegate},
	{Op: bitpacker.ShardOpOffset, Arg: 1},
}

func shardConfig() bitpacker.Config {
	return bitpacker.Config{
		Scheme:    bitpacker.RNSCKKS,
		LogN:      11,
		Levels:    4,
		ScaleBits: 40,
		WordBits:  61,
		Seed:      29,
		Workers:   1,
	}
}

type shardSys struct {
	cfg    bitpacker.Config
	ctx    *bitpacker.Context
	fleets []*worker.Fleet
	addrs  []string
	exe    string
	dir    string // root of the per-job exchange directories
	jobs   int

	in       [][]*bitpacker.Ciphertext
	serial   [][][]byte // per batch: the serial run's serialized outputs
	serialMs []float64
	maxErr   float64 // serial outputs against the float64 program
	reports  []bitpacker.ShardReport
}

func buildShard(o *options) (system, error) {
	cfg := shardConfig()
	ctx, err := bitpacker.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &shardSys{cfg: cfg, ctx: ctx, exe: o.exe, dir: filepath.Join(o.out, "exchange")}
	for i := 0; i < runtime.NumCPU(); i++ {
		fl, err := worker.Listen("127.0.0.1:0", nil)
		if err != nil {
			s.close()
			return nil, err
		}
		s.fleets = append(s.fleets, fl)
		s.addrs = append(s.addrs, fl.Addr())
		go fl.Serve()
	}
	return s, nil
}

// shardReference applies the program to one slot in float64.
func shardReference(x complex128) complex128 {
	x = x * x
	x = x * 1.25
	x += 0.125
	x = x * x
	x = -x
	return x + 1
}

func (s *shardSys) prepare(o *options) error {
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x54a2d))
	for b := 0; b < shardBatches; b++ {
		batch := make([]*bitpacker.Ciphertext, shardCts)
		want := make([][]complex128, shardCts)
		for i := range batch {
			vals := make([]complex128, s.ctx.Slots())
			want[i] = make([]complex128, len(vals))
			for j := range vals {
				vals[j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
				want[i][j] = shardReference(vals[j]) + complex(o.perturb, 0)
			}
			ct, err := s.ctx.Encrypt(vals)
			if err != nil {
				return err
			}
			batch[i] = ct
		}
		// The serial run: the reference every lane must match bit for bit.
		t0 := time.Now()
		out := batch
		for _, st := range shardProgram {
			var err error
			if out, err = s.ctx.ApplyShardStep(st, out); err != nil {
				return fmt.Errorf("serial run: %w", err)
			}
		}
		s.serialMs = append(s.serialMs, float64(time.Since(t0).Nanoseconds())/1e6)
		blobs := make([][]byte, len(out))
		for i, ct := range out {
			got, err := s.ctx.Decrypt(ct)
			if err != nil {
				return err
			}
			if e := maxAbsErr(got, want[i]); e > s.maxErr {
				s.maxErr = e
			}
			if blobs[i], err = s.ctx.MarshalCiphertext(ct); err != nil {
				return err
			}
		}
		s.in = append(s.in, batch)
		s.serial = append(s.serial, blobs)
	}
	return nil
}

// options returns one job's lane options with a fresh exchange
// directory, so fleets build each job's context as forked workers do
// instead of reusing a cached one.
func (s *shardSys) options(fork bool) bitpacker.ShardOptions {
	s.jobs++
	opts := bitpacker.ShardOptions{Dir: filepath.Join(s.dir, fmt.Sprintf("job-%d", s.jobs)), EngineWorkers: 1}
	if fork {
		opts.Workers = runtime.NumCPU()
		opts.WorkerCommand = []string{s.exe}
	} else {
		opts.Addrs = s.addrs
	}
	return opts
}

// job runs batch b on one lane in span api.run_sharded and checks the
// outputs against the serial run.
func (s *shardSys) job(b int, fork bool, tr *tracer, op int64, parent int) (func() float64, bitpacker.ShardReport, error) {
	opts := s.options(fork)
	defer os.RemoveAll(opts.Dir)
	var out []*bitpacker.Ciphertext
	var rep bitpacker.ShardReport
	err := tr.call("api.run_sharded", op, parent, func() (err error) {
		out, rep, err = s.ctx.RunSharded(context.Background(), shardProgram, s.in[b], opts)
		return err
	})
	if err != nil {
		return nil, rep, fmt.Errorf("api.run_sharded: %w", err)
	}
	if rep.Stats.DegradedEntries > 0 {
		return nil, rep, fmt.Errorf("job degraded to in-process execution: the lane under test did not run it")
	}
	return func() float64 { return s.mismatch(b, out) }, rep, nil
}

func (s *shardSys) phase(d time.Duration, tr *tracer) (*phase, error) {
	s.reports = s.reports[:0]
	return closedLoop(d, shardJobs(d), tr, 1e-3, func(i int, tr *tracer, op int64, root int) (func() float64, error) {
		check, rep, err := s.job(i%len(s.in), false, tr, op, root)
		if tr != nil {
			s.reports = append(s.reports, rep)
		}
		return check, err
	}), nil
}

// mismatch returns the serial run's maximum error when every output is
// bit-identical to it, and +Inf otherwise (a failed check).
func (s *shardSys) mismatch(b int, out []*bitpacker.Ciphertext) float64 {
	if len(out) != len(s.serial[b]) {
		return math.Inf(1)
	}
	for i, ct := range out {
		blob, err := s.ctx.MarshalCiphertext(ct)
		if err != nil || !bytes.Equal(blob, s.serial[b][i]) {
			return math.Inf(1)
		}
	}
	return s.maxErr
}

func (s *shardSys) layers(m map[string]float64, ph *phase, _ spanSummary) error {
	serial := median(s.serialMs)
	workers := float64(runtime.NumCPU())
	m["shard.serial_job_ms"] = serial
	m["shard.tcp_job_ms"] = median(ph.lat)
	m["shard.overhead_ms.tcp"] = median(ph.lat) - serial/workers
	var n float64
	for _, r := range s.reports {
		n++
		m["shard.spawns"] += float64(r.Stats.Spawns)
		m["shard.redispatches"] += float64(r.Stats.Redispatches)
		m["shard.heartbeat_misses"] += float64(r.Stats.HeartbeatMisses)
		m["shard.reconnects"] += float64(r.Stats.Reconnects)
		m["shard.degraded"] += float64(r.Stats.DegradedEntries)
	}
	for _, k := range []string{"shard.spawns", "shard.redispatches", "shard.heartbeat_misses", "shard.reconnects", "shard.degraded"} {
		if n > 0 {
			m[k] /= n
		}
	}

	// The fork lane: a few jobs, each checked like the measured ones.
	var forkMs []float64
	for j := 0; j < forkJobs; j++ {
		t0 := time.Now()
		check, _, err := s.job(j%len(s.in), true, nil, 0, -1)
		if err != nil {
			return fmt.Errorf("fork lane: %w", err)
		}
		forkMs = append(forkMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if e := check(); !(e <= 1e-3) {
			return fmt.Errorf("fork lane: job %d output differs from the serial run", j)
		}
	}
	m["shard.fork_job_ms"] = median(forkMs)
	m["shard.overhead_ms.fork"] = median(forkMs) - serial/workers

	// What each worker pays per job: its context build; per shard: the
	// decode of its input, the encode and durable Put of its output.
	m["shard.worker_ctx_ms"] = timeNs(300*time.Millisecond, func() { bitpacker.New(s.cfg) }) / 1e6
	chunk := s.in[0][:shardCts/(4*runtime.NumCPU())]
	blob, err := s.ctx.EncodeCiphertexts(chunk)
	if err != nil {
		return err
	}
	m["shard.encode_ms"] = timeNs(50*time.Millisecond, func() { s.ctx.EncodeCiphertexts(chunk) }) / 1e6
	m["shard.decode_ms"] = timeNs(50*time.Millisecond, func() { s.ctx.DecodeCiphertexts(blob) }) / 1e6
	store, err := pipeline.NewDirStore(filepath.Join(s.dir, "put-probe"))
	if err != nil {
		return err
	}
	var putErr error
	m["shard.put_ms"] = timeNs(50*time.Millisecond, func() {
		if err := store.Put(0, "shard-0", blob); err != nil && putErr == nil {
			putErr = err
		}
	}) / 1e6
	if putErr != nil {
		return putErr
	}
	keyLayers(s.ctx, m)
	params, err := paramsFor(s.cfg)
	if err != nil {
		return err
	}
	if err := sameChain(params, s.ctx); err != nil {
		return err
	}
	kernelProbes(params, m)
	return nil
}

func (s *shardSys) close() {
	for _, fl := range s.fleets {
		fl.Close()
	}
	os.RemoveAll(s.dir)
}
