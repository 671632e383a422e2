package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"bitpacker"
	"bitpacker/internal/ckks"
	"bitpacker/internal/core"
	"bitpacker/internal/engine"
	"bitpacker/internal/ring"
	"bitpacker/internal/rns"
)

// paramsFor rebuilds the parameter set a bitpacker.Context derives from
// cfg (same defaults, same chain builder), so the kernel probes run at
// the workload's exact ring degree and moduli. The caller checks the
// result against the live context with sameChain.
func paramsFor(cfg bitpacker.Config) (*ckks.Parameters, error) {
	digits := cfg.KeySwitchDigits
	if digits == 0 {
		digits = 3
	}
	word := cfg.WordBits
	if word == 0 {
		word = 61
	}
	sigma := cfg.Sigma
	if sigma == 0 {
		sigma = 3.2
	}
	schedule := cfg.ScaleSchedule
	if schedule == nil {
		schedule = make([]float64, cfg.Levels+1)
		for i := range schedule {
			schedule[i] = cfg.ScaleBits
		}
	}
	qMin := cfg.QMinBits
	if qMin == 0 {
		qMin = schedule[0] + 20
	}
	prog := core.ProgramSpec{MaxLevel: cfg.Levels, TargetScaleBits: schedule, QMinBits: qMin}
	return ckks.BuildParametersExt(cfg.Scheme, prog, core.SecuritySpec{LogN: cfg.LogN},
		core.HWSpec{WordBits: word}, digits, sigma, cfg.RedundantResidue)
}

// sameChain fails unless params describe the context's modulus chain.
func sameChain(params *ckks.Parameters, ctx *bitpacker.Context) error {
	if got, want := bitpacker.DescribeChain(params.Chain), ctx.ChainDescription(); got != want {
		return fmt.Errorf("probe parameters diverge from the context's chain:\n%s\nvs\n%s", got, want)
	}
	return nil
}

// timeNs reports the median per-call nanoseconds of f over five batches
// sized to take roughly budget in total.
func timeNs(budget time.Duration, f func()) float64 {
	f() // warm tables and pools
	t0 := time.Now()
	f()
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	iters := int(budget / 5 / one)
	if iters < 1 {
		iters = 1
	}
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	sort.Float64s(batches)
	return batches[2]
}

// kernelProbes times the host kernels one level of the workload's chain
// runs, calling the kernel packages directly:
//
//   - ntt.forward_ns / inverse_ns / mulcoeffs_ns: one residue row (the
//     top level's first modulus);
//   - ring.permute_ns: an NTT-domain automorphism (rotation by one) of a
//     full top-level polynomial;
//   - rns.conv_ns: the ModUp basis extension of one keyswitch digit to
//     the rest of the key basis;
//   - rns.exactdiv_ns: the ModDown division by the special primes of a
//     two-polynomial ciphertext;
//   - engine.dispatch_ns: an empty Dispatch over one task per residue,
//     at the workload's engine width.
func kernelProbes(params *ckks.Parameters, m map[string]float64) {
	const budget = 60 * time.Millisecond
	rc := params.Ctx
	n := params.N()
	top := params.LevelModuli(params.MaxLevel())
	rng := rand.New(rand.NewPCG(1, 2))
	randRows := func(moduli []uint64) [][]uint64 {
		rows := make([][]uint64, len(moduli))
		for i, q := range moduli {
			rows[i] = make([]uint64, n)
			for k := range rows[i] {
				rows[i][k] = rng.Uint64N(q)
			}
		}
		return rows
	}

	tab := rc.Table(top[0])
	row := randRows(top[:1])[0]
	other := randRows(top[:1])[0]
	out := make([]uint64, n)
	m["ntt.forward_ns"] = timeNs(budget, func() { tab.Forward(row) })
	m["ntt.inverse_ns"] = timeNs(budget, func() { tab.Inverse(row) })
	m["ntt.mulcoeffs_ns"] = timeNs(budget, func() { tab.MulCoeffs(out, row, other) })

	p := ring.NewPoly(rc, top)
	copy(p.Coeffs, randRows(top))
	p.IsNTT = true
	gal := ring.GaloisElementForRotation(1, n)
	m["ring.permute_ns"] = timeNs(budget, func() { rc.PutPoly(p.PermuteNTT(gal)) })

	alpha := (len(top) + params.Dnum - 1) / params.Dnum
	digit := top[:alpha]
	rest := append(append([]uint64(nil), top[alpha:]...), params.Chain.Special...)
	conv := rns.NewConv(digit, rest)
	src := randRows(digit)
	dst := randRows(rest)
	m["rns.conv_ns"] = timeNs(budget, func() { conv.Convert(dst, src) })

	special := params.Chain.Special
	div := rns.NewExactDiv(special, top)
	shed := [][][]uint64{randRows(special), randRows(special)}
	kept := [][][]uint64{randRows(top), randRows(top)}
	outs := [][][]uint64{randRows(top), randRows(top)}
	targets := []rns.DivBatchTarget{
		{Shed: shed[0], Kept: kept[0], Out: outs[0]},
		{Shed: shed[1], Kept: kept[1], Out: outs[1]},
	}
	m["rns.exactdiv_ns"] = timeNs(budget, func() { div.ApplyBatch(targets) })

	m["engine.dispatch_ns"] = timeNs(budget, func() { engine.Dispatch(len(top), n, func(int) {}) })
}

// keyLayers reports the context's key cache counters and resident
// switching-key bytes (eager key sets have no cache counters).
func keyLayers(ctx *bitpacker.Context, m map[string]float64) {
	if st, ok := ctx.KeyCacheStats(); ok {
		m["keycache.hits"] = float64(st.Hits)
		m["keycache.misses"] = float64(st.Misses)
	}
	m["keycache.resident_bytes"] = float64(ctx.ResidentKeyBytes())
}
