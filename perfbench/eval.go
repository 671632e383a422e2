package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"bitpacker"
)

// eval_w28: one closed-loop client on an in-process context at LogN 12
// with 28-bit words. An operation is a 16x16 BSGS matrix-vector product,
// a squaring, four hoisted rotations summed into the result, a second
// squaring and a decryption, checked slot by slot against float64.
// The tail is p90: the slowest observed 24 s runs had 169 operations.
func init() { register(&workload{name: "eval_w28", tailPct: 90, build: buildEval}) }

const evalDim = 16

var evalRotations = []int{1, 2, 4, 8}

func evalConfig() bitpacker.Config {
	rots := make([]int, evalDim-1)
	for i := range rots {
		rots[i] = i + 1
	}
	return bitpacker.Config{
		Scheme:    bitpacker.BitPacker,
		LogN:      12,
		Levels:    6,
		ScaleBits: 40,
		WordBits:  28,
		Seed:      11,
		Rotations: rots, // 15 eager rotation keys: every BSGS and hoisted step
		Workers:   runtime.NumCPU(),
	}
}

type evalSys struct {
	cfg bitpacker.Config
	ctx *bitpacker.Context
	lt  *bitpacker.Transform
	mat [][]float64
	in  []*bitpacker.Ciphertext
	ref [][]complex128 // per input: the 16 expected output values
}

func buildEval(o *options) (system, error) {
	cfg := evalConfig()
	ctx, err := bitpacker.New(cfg)
	if err != nil {
		return nil, err
	}
	// The matrix is part of the deployed program, not of the inputs: it
	// is fixed, and encoding it is set-up work.
	rng := rand.New(rand.NewPCG(5, 5))
	mat := make([][]float64, evalDim)
	cmat := make([][]complex128, evalDim)
	for i := range mat {
		mat[i] = make([]float64, evalDim)
		cmat[i] = make([]complex128, evalDim)
		for j := range mat[i] {
			mat[i][j] = (2*rng.Float64() - 1) / evalDim
			cmat[i][j] = complex(mat[i][j], 0)
		}
	}
	lt, err := ctx.NewMatrixTransform(cmat, ctx.MaxLevel())
	if err != nil {
		return nil, err
	}
	have := map[int]bool{}
	for _, r := range cfg.Rotations {
		have[r] = true
	}
	for _, r := range append(lt.Rotations(), evalRotations...) {
		if !have[r] {
			return nil, fmt.Errorf("rotation %d has no eager key", r)
		}
	}
	return &evalSys{cfg: cfg, ctx: ctx, lt: lt, mat: mat}, nil
}

func (s *evalSys) prepare(o *options) error {
	rng := rand.New(rand.NewPCG(o.seed, 0xe7a1))
	for k := 0; k < 8; k++ {
		x := make([]complex128, evalDim)
		for i := range x {
			x[i] = complex(2*rng.Float64()-1, 0)
		}
		ct, err := s.ctx.Encrypt(s.ctx.Replicate(x, evalDim))
		if err != nil {
			return err
		}
		s.in = append(s.in, ct)
		s.ref = append(s.ref, evalReference(s.mat, x, o.perturb))
	}
	return nil
}

// evalReference computes the operation in float64: y = Mx, w = y^2,
// v_i = w_i + sum_k w_(i+k) over the rotation steps, out = v^2.
func evalReference(mat [][]float64, x []complex128, perturb float64) []complex128 {
	w := make([]complex128, evalDim)
	for i := range w {
		var y complex128
		for j := range x {
			y += complex(mat[i][j], 0) * x[j]
		}
		w[i] = y * y
	}
	out := make([]complex128, evalDim)
	for i := range out {
		v := w[i]
		for _, k := range evalRotations {
			v += w[(i+k)%evalDim]
		}
		out[i] = v*v + complex(perturb, 0)
	}
	return out
}

func (s *evalSys) phase(d time.Duration, tr *tracer) (*phase, error) {
	ctx := s.ctx
	return closedLoop(d, 0, tr, 1e-2, func(i int, tr *tracer, op int64, root int) (func() float64, error) {
		k := i % len(s.in)
		var y, w, v *bitpacker.Ciphertext
		var rots []*bitpacker.Ciphertext
		var out []complex128
		st := &steps{tr: tr, op: op, parent: root}
		st.do("api.apply", func() (err error) { y, err = ctx.Apply(s.in[k], s.lt); return })
		st.do("api.rescale", func() (err error) { y, err = ctx.Rescale(y); return })
		st.do("api.mul_rescale", func() (err error) { w, err = ctx.MulRescale(y, y); return })
		st.do("api.rotate_hoisted", func() (err error) { rots, err = ctx.RotateHoisted(w, evalRotations); return })
		st.do("api.add", func() (err error) {
			v = w
			for _, r := range rots {
				if v, err = ctx.Add(v, r); err != nil {
					return err
				}
			}
			return nil
		})
		st.do("api.mul_rescale", func() (err error) { v, err = ctx.MulRescale(v, v); return })
		st.do("api.decrypt", func() (err error) { out, err = ctx.Decrypt(v); return })
		return func() float64 { return maxAbsErr(out, s.ref[k]) }, st.err
	}), nil
}

func (s *evalSys) layers(m map[string]float64, _ *phase, _ spanSummary) error {
	params, err := paramsFor(s.cfg)
	if err != nil {
		return err
	}
	if err := sameChain(params, s.ctx); err != nil {
		return err
	}
	keyLayers(s.ctx, m)
	kernelProbes(params, m)
	return nil
}

func (s *evalSys) close() {}
