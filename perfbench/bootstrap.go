package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bitpacker"
)

// bootstrap_w61: one closed-loop client running a checkpointed
// three-stage pipeline (exhaust the levels, Refresh, multiply once more)
// at LogN 8 with 61-bit words — the verified bootstrapping configuration
// of examples/bootstrap without the redundant residue and retry.
// The tail is p90: 24 s runs have 230-530 operations.
func init() { register(&workload{name: "bootstrap_w61", tailPct: 90, build: buildBootstrap}) }

// bootScale multiplies the values at every exhaust step and once after
// the refresh.
const bootScale = 0.9

func bootstrapConfig() bitpacker.Config {
	return bitpacker.Config{
		Scheme:             bitpacker.BitPacker,
		LogN:               8,
		Levels:             bitpacker.ChebyshevDepth(19) + 4,
		ScaleBits:          40,
		QMinBits:           48,
		WordBits:           61,
		SparseSecretWeight: 3,
		Bootstrap:          &bitpacker.BootstrapOptions{KRange: 2, SineDegree: 19},
		Seed:               2024,
		Workers:            runtime.NumCPU(),
	}
}

type bootSys struct {
	cfg   bitpacker.Config
	ctx   *bitpacker.Context
	dir   string
	scale []complex128
	in    []*bitpacker.Ciphertext
	ref   [][]complex128
	// ckptBytes, when non-nil, sums the checkpoint files seen at stage
	// entry (set only for the untimed probe run in layers).
	ckptBytes *int64
}

func buildBootstrap(o *options) (system, error) {
	cfg := bootstrapConfig()
	ctx, err := bitpacker.New(cfg)
	if err != nil {
		return nil, err
	}
	scale := make([]complex128, ctx.Slots())
	for i := range scale {
		scale[i] = bootScale
	}
	return &bootSys{cfg: cfg, ctx: ctx, scale: scale, dir: filepath.Join(o.out, "ckpt-bootstrap")}, nil
}

func (s *bootSys) prepare(o *options) error {
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(o.seed, 0xb007))
	for k := 0; k < 4; k++ {
		x := make([]float64, s.ctx.Slots())
		for i := range x {
			x[i] = 0.9 * (rng.Float64() - 0.5)
		}
		ct, err := s.ctx.EncryptReal(x)
		if err != nil {
			return err
		}
		// exhaust multiplies once per level, finish once more.
		factor := 1.0
		for l := 0; l <= ct.Level(); l++ {
			factor *= bootScale
		}
		ref := make([]complex128, len(x))
		for i, v := range x {
			ref[i] = complex(v*factor+o.perturb, 0)
		}
		s.in = append(s.in, ct)
		s.ref = append(s.ref, ref)
	}
	return nil
}

// stages builds the pipeline; each stage body runs in a span under
// parent, so the pipeline's own time (checkpoint encode, write, fsync,
// restore) is the self time of the enclosing api.run_pipeline span.
func (s *bootSys) stages(tr *tracer, op int64, parent int) []bitpacker.PipelineStage {
	ctx := s.ctx
	stage := func(name string, body func(st *steps, in *bitpacker.Ciphertext) *bitpacker.Ciphertext) bitpacker.PipelineStage {
		return bitpacker.PipelineStage{Name: name, Run: func(_ context.Context, state []*bitpacker.Ciphertext) ([]*bitpacker.Ciphertext, error) {
			if s.ckptBytes != nil {
				*s.ckptBytes += dirBytes(s.dir)
			}
			id := tr.begin("pipeline.stage."+name, op, parent)
			defer tr.end(id)
			st := &steps{tr: tr, op: op, parent: id}
			out := body(st, state[0])
			if st.err != nil {
				return nil, st.err
			}
			return []*bitpacker.Ciphertext{out}, nil
		}}
	}
	scaleDown := func(st *steps, ct *bitpacker.Ciphertext) *bitpacker.Ciphertext {
		st.do("api.mul_const", func() (err error) { ct, err = ctx.MulConst(ct, s.scale); return })
		st.do("api.rescale", func() (err error) { ct, err = ctx.Rescale(ct); return })
		return ct
	}
	return []bitpacker.PipelineStage{
		stage("exhaust", func(st *steps, ct *bitpacker.Ciphertext) *bitpacker.Ciphertext {
			for ct.Level() > 0 && st.err == nil {
				ct = scaleDown(st, ct)
			}
			return ct
		}),
		stage("refresh", func(st *steps, ct *bitpacker.Ciphertext) *bitpacker.Ciphertext {
			st.do("api.refresh", func() (err error) { ct, err = ctx.Refresh(ct); return })
			return ct
		}),
		stage("finish", scaleDown),
	}
}

func (s *bootSys) phase(d time.Duration, tr *tracer) (*phase, error) {
	ctx := s.ctx
	opts := bitpacker.PipelineOptions{CheckpointDir: s.dir}
	return closedLoop(d, 0, tr, 1.0/16, func(i int, tr *tracer, op int64, root int) (func() float64, error) {
		k := i % len(s.in)
		var final []*bitpacker.Ciphertext
		var out []complex128
		st := &steps{tr: tr, op: op, parent: root}
		id := tr.begin("api.run_pipeline", op, root)
		final, _, st.err = ctx.RunPipeline(context.Background(), s.stages(tr, op, id), []*bitpacker.Ciphertext{s.in[k]}, opts)
		tr.end(id)
		st.do("api.decrypt", func() (err error) { out, err = ctx.Decrypt(final[0]); return })
		if st.err != nil {
			// A failed run leaves checkpoints behind; the next operation
			// must start from its own input, not resume this one.
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, err
			}
		}
		return func() float64 { return maxAbsErr(out, s.ref[k]) }, st.err
	}), nil
}

func (s *bootSys) layers(m map[string]float64, ph *phase, sum spanSummary) error {
	ops := float64(sum.roots)
	for _, name := range []string{"exhaust", "refresh", "finish"} {
		m["pipeline.stage_ms."+name] = float64(sum.total["pipeline.stage."+name]) / 1e6 / ops
	}
	m["pipeline.checkpoint_ms"] = float64(sum.self["api.run_pipeline"]) / 1e6 / ops
	// Checkpoint sizes come from one more, untimed pipeline run, so that
	// reading them stays out of the pipeline spans.
	var n int64
	s.ckptBytes = &n
	_, _, err := s.ctx.RunPipeline(context.Background(), s.stages(nil, 0, -1), s.in[:1], bitpacker.PipelineOptions{CheckpointDir: s.dir})
	s.ckptBytes = nil
	if err != nil {
		return fmt.Errorf("checkpoint size probe: %w", err)
	}
	m["pipeline.checkpoint_bytes"] = float64(n)
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

func (s *bootSys) close() { os.RemoveAll(s.dir) }

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
