package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bitpacker"
	"bitpacker/internal/serve"
)

// serve_packed: eight tenants of one packed LogN-10 profile sending
// framed quartic requests through Server.ServeHTTP in-process. Each
// tenant is a closed-loop client that waits for its reply and then
// thinks for a random time of mean serveThink, which offers about the
// nominal 250 req/s (latency_p50_ms, latency_tail_ms); bursts of
// back-to-back requests measure capacity (throughput_ops_s). Traced runs add open-loop
// stretches of independent Poisson arrivals at a light and the nominal
// rate, timed from each request's due time (serve.light_p50_ms,
// serve.nominal_*). Those open-loop latencies are not end-to-end
// metrics: on a shared two-CPU host their median moved by a third
// between runs of the same code.
// The tail is p95: 24 s runs have thousands of think-time requests.
func init() { register(&workload{name: "serve_packed", tailPct: 95, build: buildServe}) }

const (
	serveThink       = 20 * time.Millisecond
	serveTenants     = 8
	serveLightRPS    = 100
	serveNominalRPS  = 250
	serveInputsPerTn = 8
	serveChunk       = time.Second // think-time requests checked per stretch
	serveBurst       = 25          // requests per tenant in a capacity burst
)

func serveProfile() serve.ProfileConfig {
	const logN = 10
	return serve.ProfileConfig{
		Name: "bench",
		Params: bitpacker.Config{
			Scheme:        bitpacker.BitPacker,
			LogN:          logN,
			Levels:        3,
			ScaleBits:     40,
			QMinBits:      48,
			WordBits:      61,
			Seed:          21,
			KeyCacheBytes: 16 << 20,
			// One engine worker: the tenants' concurrent requests spread
			// over the CPUs instead of every batch splitting across all of
			// them. Five interleaved pairs of runs on a shared two-CPU host
			// moved p50 by 18% at one worker and 48% at NumCPU.
			Workers: 1,
		},
		Window:        (1 << (logN - 1)) / serveTenants,
		MaxBatch:      serveTenants,
		FlushInterval: 3 * time.Millisecond,
		QueueDepth:    4 * serveTenants,
		Packing:       true,
	}
}

type serveSys struct {
	cfg     serve.ProfileConfig
	srv     *serve.Server
	windows []int // window start per tenant

	seed   uint64             // arrival schedules derive from it
	phases uint64             // phases run so far (each gets its own schedule)
	client *bitpacker.Context // the tenants' side: encrypts and decrypts
	// checkers decrypt replies in parallel, one context each: a
	// Context's decryptor is not safe for concurrent use.
	checkers []*bitpacker.Context
	bodies   [][]byte       // framed eval requests
	ref      [][]complex128 // expected result window per request body
}

func buildServe(o *options) (system, error) {
	cfg := serveProfile()
	srv, err := serve.NewServer(serve.Options{Profiles: []serve.ProfileConfig{cfg}})
	if err != nil {
		return nil, err
	}
	s := &serveSys{cfg: cfg, srv: srv}
	for t := 0; t < serveTenants; t++ {
		body, _ := json.Marshal(serve.RegisterRequest{Profile: cfg.Name, Tenant: fmt.Sprintf("t%d", t)})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/register", bytes.NewReader(body)))
		var rr serve.RegisterResponse
		if rec.Code != http.StatusOK {
			srv.Close()
			return nil, fmt.Errorf("register: status %d: %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			srv.Close()
			return nil, fmt.Errorf("register: %w", err)
		}
		s.windows = append(s.windows, rr.WindowStart)
	}
	return s, nil
}

func (s *serveSys) prepare(o *options) error {
	client, err := bitpacker.New(s.cfg.Params)
	if err != nil {
		return err
	}
	s.client = client
	s.checkers = []*bitpacker.Context{client}
	for len(s.checkers) < runtime.NumCPU() {
		c, err := bitpacker.New(s.cfg.Params)
		if err != nil {
			return err
		}
		s.checkers = append(s.checkers, c)
	}
	s.seed = o.seed
	rng := rand.New(rand.NewPCG(o.seed, 0x5e7e))
	for i := 0; i < serveTenants*serveInputsPerTn; i++ {
		t := i % serveTenants
		in := make([]float64, client.Slots())
		ref := make([]complex128, s.cfg.Window)
		for k := range ref {
			x := 2*rng.Float64() - 1
			in[s.windows[t]+k] = x
			ref[k] = complex(x*x*x*x+o.perturb, 0)
		}
		ct, err := client.EncryptReal(in)
		if err != nil {
			return err
		}
		blob, err := client.MarshalCiphertext(ct)
		if err != nil {
			return err
		}
		hdr, _ := json.Marshal(serve.EvalHeader{Profile: s.cfg.Name, Tenant: fmt.Sprintf("t%d", t), Op: serve.OpQuartic})
		var body bytes.Buffer
		serve.WriteFrame(&body, serve.FrameHeader, hdr)
		serve.WriteFrame(&body, serve.FrameBlob, blob)
		s.bodies = append(s.bodies, body.Bytes())
		s.ref = append(s.ref, ref)
	}
	return nil
}

// reply is one finished request: which input it carried and what came
// back.
type reply struct {
	input  int
	status int
	body   []byte
}

// send issues request body i through ServeHTTP inside span "serve.http".
func (s *serveSys) send(i int, tr *tracer, op int64, root int) reply {
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(s.bodies[i]))
	rec := httptest.NewRecorder()
	id := tr.begin("serve.http", op, root)
	s.srv.ServeHTTP(rec, req)
	tr.end(id)
	return reply{input: i, status: rec.Code, body: rec.Body.Bytes()}
}

// openStats summarises one open-loop stretch.
type openStats struct {
	lat         []float64 // ms from due time to completion, successful requests
	replies     []reply
	lateMaxMs   float64 // worst generator lag behind the schedule
	backlogPeak int64   // most requests in flight at once
}

// openLoop sends requests on a seeded Poisson schedule at rate for d,
// each on its own goroutine, and waits for all of them.
func (s *serveSys) openLoop(rate float64, d time.Duration, tr *tracer) openStats {
	s.phases++
	rng := rand.New(rand.NewPCG(s.seed, s.phases))
	var st openStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	due := time.Duration(0)
	for n := 0; ; n++ {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if due >= d {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if late := float64((time.Since(start) - due).Nanoseconds()) / 1e6; late > st.lateMaxMs {
			st.lateMaxMs = late
		}
		if b := inflight.Add(1); b > st.backlogPeak {
			st.backlogPeak = b
		}
		input := n % len(s.bodies)
		dueAt := start.Add(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := tr.newOp()
			root := tr.begin("op", op, -1)
			r := s.send(input, tr, op, root)
			tr.end(root)
			ms := float64(time.Since(dueAt).Nanoseconds()) / 1e6
			inflight.Add(-1)
			mu.Lock()
			st.replies = append(st.replies, r)
			if r.status == http.StatusOK {
				st.lat = append(st.lat, ms)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return st
}

// closedClients runs one closed-loop client per tenant, each pausing a
// seeded exponential think time of mean think between its requests
// (random pauses keep the tenants from falling into lockstep with the
// batches), and returns the replies and the latencies of the successful
// ones. Each tenant sends count requests, or with count 0 sends until d
// has passed.
func (s *serveSys) closedClients(d time.Duration, count int, think time.Duration, tr *tracer) ([]reply, []float64) {
	s.phases++
	var mu sync.Mutex
	var replies []reply
	var lat []float64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		rng := rand.New(rand.NewPCG(s.seed, s.phases<<8|uint64(t)))
		go func(t int) {
			defer wg.Done()
			for n := 0; (count > 0 && n < count) || (count == 0 && time.Since(start) < d); n++ {
				input := (n*serveTenants + t) % len(s.bodies)
				op := tr.newOp()
				t0 := time.Now()
				root := tr.begin("op", op, -1)
				r := s.send(input, tr, op, root)
				tr.end(root)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mu.Lock()
				replies = append(replies, r)
				if r.status == http.StatusOK {
					lat = append(lat, ms)
				}
				mu.Unlock()
				time.Sleep(time.Duration(rng.ExpFloat64() * float64(think)))
			}
		}(t)
	}
	wg.Wait()
	return replies, lat
}

// verify decrypts every reply and checks the tenant's result window,
// on one goroutine per CPU (the check runs after the timed stretch).
func (s *serveSys) verify(ph *phase, replies []reply) {
	errs := make([]float64, len(replies))
	ph.checking(func() {
		var wg sync.WaitGroup
		workers := len(s.checkers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(replies); i += workers {
					errs[i] = s.replyErr(s.checkers[w], replies[i])
				}
			}(w)
		}
		wg.Wait()
	})
	for i, r := range replies {
		ph.attempted++
		ph.served++
		if r.status != http.StatusOK {
			ph.failed++
			continue
		}
		ph.check(errs[i], 1e-3)
	}
}

func (s *serveSys) replyErr(client *bitpacker.Context, r reply) float64 {
	rd := bytes.NewReader(r.body)
	if _, _, err := serve.ReadFrame(rd, 1<<16); err != nil {
		return math.Inf(1)
	}
	_, blob, err := serve.ReadFrame(rd, serve.DefaultMaxBlobBytes)
	if err != nil {
		return math.Inf(1)
	}
	ct, err := client.UnmarshalCiphertext(blob)
	if err != nil {
		return math.Inf(1)
	}
	got, err := client.Decrypt(ct)
	if err != nil {
		return math.Inf(1)
	}
	return maxAbsErr(got[:s.cfg.Window], s.ref[r.input])
}

func (s *serveSys) phase(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{extra: map[string]float64{}}
	// Replies are checked after every short stretch, and a capacity burst
	// is a fixed number of requests, so that the process holds a bounded
	// number of replies: its peak RSS must not grow with the server's
	// speed. An unmeasured burst first fills the key cache and the
	// scheduler's masks.
	warm, _ := s.closedClients(0, serveBurst, 0, nil)
	warmPh := &phase{}
	s.verify(warmPh, warm)
	ph.served += warmPh.served
	ph.checks = ph.checks.add(warmPh.checks)
	// Capacity bursts take a tenth of the run (a ninth of the think time)
	// and are spread over it in step with the think-time stretches, so a
	// short slow patch of the host weighs on both figures alike.
	thinkD := d * 9 / 10
	var done, busy time.Duration
	var served int
	for done < thinkD {
		chunk := min(thinkD-done, serveChunk)
		replies, lat := s.closedClients(chunk, 0, serveThink, tr)
		s.verify(ph, replies)
		ph.lat = append(ph.lat, lat...)
		done += chunk
		for busy < done/9 {
			t0 := time.Now()
			replies, lat := s.closedClients(0, serveBurst, 0, tr)
			busy += time.Since(t0)
			served += len(lat)
			s.verify(ph, replies)
		}
	}
	ph.throughput = float64(served) / busy.Seconds()
	if len(ph.lat) == 0 {
		return nil, fmt.Errorf("no successful request")
	}
	if tr != nil {
		light := s.openLoop(serveLightRPS, d/4, tr)
		s.verify(ph, light.replies)
		nominal := s.openLoop(serveNominalRPS, d/4, tr)
		s.verify(ph, nominal.replies)
		tailMs := tail(nominal.lat, 95)
		ph.extra["light_p50_ms"] = median(light.lat)
		ph.extra["nominal_p50_ms"] = median(nominal.lat)
		ph.extra["nominal_tail_ms"] = tailMs
		ph.extra["generator_late_ms"] = math.Max(light.lateMaxMs, nominal.lateMaxMs)
		ph.extra["backlog_peak"] = float64(max(light.backlogPeak, nominal.backlogPeak))
	}
	return ph, nil
}

func (s *serveSys) layers(m map[string]float64, ph *phase, _ spanSummary) error {
	for _, k := range []string{"light_p50_ms", "nominal_p50_ms", "nominal_tail_ms", "generator_late_ms", "backlog_peak"} {
		m["serve."+k] = ph.extra[k]
	}

	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		Profiles map[string]serve.ProfileStats `json:"profiles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	ps := stats.Profiles[s.cfg.Name]
	if ps.Scheduler.PackedBatches > 0 {
		m["serve.batch_mean"] = float64(ps.Scheduler.PackedReqs) / float64(ps.Scheduler.PackedBatches)
	}
	m["serve.rejected"] = float64(ps.Scheduler.Rejected)
	m["serve.fallbacks"] = float64(ps.Scheduler.Fallbacks)
	m["keycache.hits"] = float64(ps.KeyCacheHits)
	m["keycache.misses"] = float64(ps.KeyCacheMisses)
	m["keycache.resident_bytes"] = float64(ps.ResidentKeyBytes)

	// The server (de)serializes with a context of the same parameters;
	// time the same calls on the client's.
	rd := bytes.NewReader(s.bodies[0])
	serve.ReadFrame(rd, 1<<16)
	_, blob, err := serve.ReadFrame(rd, serve.DefaultMaxBlobBytes)
	if err != nil {
		return err
	}
	ct, err := s.client.UnmarshalCiphertext(blob)
	if err != nil {
		return err
	}
	m["serve.unmarshal_ms"] = timeNs(50*time.Millisecond, func() { s.client.UnmarshalCiphertext(blob) }) / 1e6
	m["serve.marshal_ms"] = timeNs(50*time.Millisecond, func() { s.client.MarshalCiphertext(ct) }) / 1e6

	params, err := paramsFor(s.cfg.Params)
	if err != nil {
		return err
	}
	if err := sameChain(params, s.client); err != nil {
		return err
	}
	kernelProbes(params, m)
	return nil
}

func (s *serveSys) close() { s.srv.Close() }
