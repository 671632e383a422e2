package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"time"
)

// closedOp runs operation i of a closed loop inside the root span root
// and returns a check that measures the output's largest absolute error
// against the reference (run after the timed region).
type closedOp func(i int, tr *tracer, op int64, root int) (check func() float64, err error)

// closedLoop is one client that issues the next operation only after the
// previous one completed: count operations, or with count 0 as many as
// fit in d (at least one). One unmeasured warm-up operation runs first.
// Each output is checked right after its operation, with the loop's
// clock paused. Errors count as failures; the first is reported on
// standard error.
func closedLoop(d time.Duration, count int, tr *tracer, tol float64, fn closedOp) *phase {
	ph := &phase{served: 1}
	if _, err := fn(0, nil, 0, -1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up operation: %v\n", err)
	}
	var firstErr error
	var checks time.Duration
	start := time.Now()
	more := func() bool {
		if count > 0 {
			return ph.attempted < count
		}
		return time.Since(start)-checks < d || ph.attempted == 0
	}
	for i := 1; more(); i++ {
		op := tr.newOp()
		t0 := time.Now()
		root := tr.begin("op", op, -1)
		check, err := fn(i, tr, op, root)
		tr.end(root)
		lat := time.Since(t0)
		ph.attempted++
		ph.served++
		if err != nil {
			ph.failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ph.lat = append(ph.lat, float64(lat.Nanoseconds())/1e6)
		var e float64
		checks += ph.checking(func() { e = check() })
		ph.check(e, tol)
	}
	ph.throughput = float64(len(ph.lat)) / (time.Since(start) - checks).Seconds()
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", ph.failed, ph.attempted, firstErr)
	}
	return ph
}

// steps chains the public calls of one operation, each in its own span
// under parent, stopping at the first error.
type steps struct {
	tr     *tracer
	op     int64
	parent int
	err    error
}

func (s *steps) do(name string, f func() error) {
	if s.err != nil {
		return
	}
	if err := s.tr.call(name, s.op, s.parent, f); err != nil {
		s.err = fmt.Errorf("%s: %w", name, err)
	}
}

// maxAbsErr compares got slot j with want[j % len(want)] (block-replicated
// references) over every slot.
func maxAbsErr(got []complex128, want []complex128) float64 {
	if len(got) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for j, g := range got {
		if e := cmplx.Abs(g - want[j%len(want)]); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}
