package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/profile"
	"powerfits/internal/serve"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// synth_service: serve.New(Options{Workers: 2}) with an archive store,
// behind a loopback listener. Set-up starts the daemon and pre-warms the
// hot set; the measured run sends a cold batch, replays the hot set
// closed-loop (the warm path), then drives the seeded open-loop mix at a
// fixed rate and up the rate ladder.

// daemon is one running service.
type daemon struct {
	svc    *serve.Service
	reg    *metrics.Registry
	store  *archive.Store
	srv    *http.Server
	base   string // http://host:port
	client *http.Client
	done   chan error
}

func startDaemon(e *env) (*daemon, error) {
	store, err := newStore(e, "serve-store")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	svc := serve.New(serve.Options{Workers: workers, Registry: reg, Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: svc, reg: reg, store: store, srv: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(), client: newClient(workers), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) synthURL() string { return d.base + "/synth" }

// stop drains the service, shuts the server down and waits for it.
func (d *daemon) stop() error {
	d.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	d.client.CloseIdleConnections()
	return err
}

func (d *daemon) counter(name string) float64 { return float64(d.reg.Counter(name).Value()) }

// prewarm computes the hot set through the daemon and returns its
// bodies, which every later hit must reproduce byte for byte.
func prewarm(d *daemon, m *mix) ([][]byte, error) {
	samples, _ := closedBatch(d.client, d.synthURL(), m.hotRaw, workers)
	bodies := make([][]byte, len(samples))
	for i, s := range samples {
		if !s.ok() || s.tier != "cold" {
			return nil, fmt.Errorf("pre-warm %s: status %d tier %q: %v", m.hotRaw[i], s.status, s.tier, s.err)
		}
		bodies[i] = s.body
	}
	return bodies, nil
}

// checkSamples gates the responses of one phase: hot requests must be
// served from a cache tier with the pre-warmed bytes, every other 200
// must decode as a serve.Report. It returns the count of failed
// requests.
func checkSamples(o *outcome, phase string, samples []sample, hot [][]byte) int64 {
	var failed int64
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			failed++
			continue
		}
		if s.kind == kindHot {
			if s.tier != "hit" && s.tier != "store" {
				o.gate("%s: hot request answered from tier %q", phase, s.tier)
			}
			if !bytes.Equal(s.body, hot[s.hot]) {
				o.gate("%s: hot body %d differs from the pre-warmed bytes", phase, s.hot)
			}
			continue
		}
		var rep serve.Report
		if err := json.Unmarshal(s.body, &rep); err != nil || rep.Schema != serve.ReportSchema || len(rep.Results) == 0 {
			o.gate("%s: response does not decode as a report: %v", phase, err)
		}
	}
	return failed
}

// gateHot checks that every hot body is byte-identical to serve.Compute
// of the same request, and that the hot set's digest is the seed's.
func gateHot(o *outcome, m *mix, hot [][]byte) {
	cal := serve.DefaultCalBlob()
	want := make([][]byte, len(m.hot))
	errs := make([]error, len(m.hot))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range m.hot {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := serve.Canonicalize(m.hot[i], cal)
			if err == nil {
				want[i], _, err = serve.Compute(c, nil)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	d := newDigest()
	for i := range m.hot {
		if errs[i] != nil {
			o.gate("serve.Compute %s: %v", m.hotRaw[i], errs[i])
		} else if !bytes.Equal(hot[i], want[i]) {
			o.gate("served body of %s differs from serve.Compute", m.hotRaw[i])
		}
		d.str(string(hot[i]))
	}
	if got := d.sum(); got != golden.ServiceHot {
		o.gate("hot-set digest %s, recorded %s", got, golden.ServiceHot)
	}
}

// openLoop drives one schedule with the /metrics monitor running.
func openLoop(d *daemon, sched []entry) ([]sample, []float64, []float64, int) {
	stop := monitor(d.base+"/metrics", time.Second)
	samples, late := drive(d.client, d.synthURL(), sched, workers)
	scrapes, scrapeFails := stop()
	return samples, late, scrapes, scrapeFails
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = samples[i].latencyMs()
	}
	return out
}

// The measured run is rounds of [three cold batches, warm passes,
// fixed-rate open loop], one per roundSeconds of the budget, so that a
// slow stretch of the shared host moves one round, not a whole phase:
// every figure is a median over rounds or batches. A round's open loop
// is roundRequests arrivals, 84 of them cold: two full cycles of the
// stratified cold stream.
const (
	roundSeconds  = 7
	roundRequests = 840
	roundBatches  = 3
	warmShare     = 0.01 // of the budget per round spent on warm passes
)

// startWarm starts a daemon and pre-warms its hot set: the service's
// set-up.
func startWarm(e *env, m *mix) (*daemon, [][]byte, error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, nil, err
	}
	hot, err := prewarm(d, m)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, hot, nil
}

func runService(e *env) (*outcome, error) {
	o := newOutcome()
	m, err := newMix()
	if err != nil {
		return nil, err
	}
	var d *daemon
	var hot [][]byte
	setup, err := medianSetup(3, func() error {
		if err := d.stop(); err != nil {
			return err
		}
		return os.RemoveAll(d.store.Dir)
	}, func() (err error) {
		d, hot, err = startWarm(e, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	o.set("setup_s", setup)
	o.attempted += int64(len(hot))

	warmBodies := make([][]byte, 0, 10*len(m.hotRaw))
	for i := 0; i < 10; i++ {
		warmBodies = append(warmBodies, m.hotRaw...)
	}
	warmSched := make([]entry, len(warmBodies))
	for j, b := range warmBodies {
		warmSched[j] = entry{Kind: kindHot, Hot: j % len(m.hotRaw), Body: b}
	}
	var walls, rates, p50s, p99s, late []float64
	n := 0
	rounds := max(2, int(e.budget.Seconds()/roundSeconds))
	for round := 0; round < rounds; round++ {
		// Cold batches: one fresh request per hot-set slot, closed loop.
		for b := 0; b < roundBatches; b++ {
			bodies := make([][]byte, 0, len(m.hot))
			for _, r := range m.coldBatch() {
				body, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				bodies = append(bodies, body)
			}
			runtime.GC()
			samples, wall := closedBatch(d.client, d.synthURL(), bodies, workers)
			o.attempted += int64(len(samples))
			o.failed += checkSamples(o, "cold batch", samples, hot)
			walls = append(walls, wall)
		}

		// Warm passes: the hot set, ten times over, closed loop.
		for w0 := time.Now(); time.Since(w0) < time.Duration(warmShare*float64(e.budget)); {
			start := time.Now()
			samples, _ := drive(d.client, d.synthURL(), warmSched, workers)
			rates = append(rates, float64(len(samples))/time.Since(start).Seconds())
			o.attempted += int64(len(samples))
			o.failed += checkSamples(o, "warm", samples, hot)
		}

		// The fixed-rate open loop for the rest of the round.
		sched, err := m.schedule(e.seed*int64(rounds)+int64(round), fixedRate, roundRequests)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		samples, l, _, scrapeFails := openLoop(d, sched)
		o.attempted += int64(len(samples))
		o.failed += checkSamples(o, "fixed rate", samples, hot) + int64(scrapeFails)
		lat := latencies(samples)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		late = append(late, l...)
		n += len(samples)
	}
	o.set("wall_s", median(walls))
	o.set("warm_points_per_s", median(rates))
	o.set("p50_ms", median(p50s))
	e.logf("synth_service: cold batches %.3f s; fixed %.0f req/s: %d requests, p50s %.3f ms, p99s %.3f ms, late max %.3f ms",
		walls, fixedRate, n, p50s, p99s, quantile(late, 1))

	gateHot(o, m, hot)
	return o, nil
}

// capacity runs the capacity search against a warm daemon.
func capacity(e *env, o *outcome, d *daemon, m *mix, hot [][]byte) float64 {
	rungDur := time.Duration(rungShare * float64(e.budget))
	rungs := climb(func(rate float64) rung {
		sched, err := m.schedule(e.seed+int64(rate), rate, int(rate*rungDur.Seconds()))
		if err != nil {
			return rung{rate: rate, failed: 1}
		}
		runtime.GC()
		samples, late := drive(d.client, d.synthURL(), sched, workers)
		o.attempted += int64(len(samples))
		o.failed += checkSamples(o, "ladder", samples, hot)
		r := measureRung(rate, samples)
		e.logf("synth_service: rung %.1f req/s: p99 %.3f ms, failed %d, backlog %t, late max %.3f ms",
			rate, r.p99, r.failed, r.backlog, quantile(late, 1))
		return r
	}, func() bool { return true })
	return maxRate(rungs)
}

// traceService counts one untraced fixed-rate run, then replays its
// schedule serially — hits over HTTP to the live daemon, cold requests
// through the public functions of the daemon's cold path — and reports
// the ledger.
func traceService(e *env) (*outcome, error) {
	o := newLayerOutcome()
	m, err := newMix()
	if err != nil {
		return nil, err
	}
	d, hot, err := startWarm(e, m)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	sched, err := m.schedule(e.seed, fixedRate, int(fixedRate*countShare*e.budget.Seconds()))
	if err != nil {
		return nil, err
	}
	saved, _, err := d.store.Stats()
	if err != nil {
		return nil, err
	}
	samples, late, scrapes, scrapeFails := openLoop(d, sched)
	runs, _, err := d.store.Stats()
	if err != nil {
		return nil, err
	}
	o.set("archive.saves", float64(runs-saved))
	o.attempted += int64(len(hot) + len(samples))
	o.failed += checkSamples(o, "fixed rate", samples, hot) + int64(scrapeFails)

	tiers := map[string]float64{}
	var hitMs, coldMs, waits []float64
	for i := range samples {
		s := &samples[i]
		tiers[s.tier]++
		waits = append(waits, s.waitMs())
		switch s.tier {
		case "hit", "store":
			hitMs = append(hitMs, s.latencyMs())
		case "cold", "coalesced":
			coldMs = append(coldMs, s.latencyMs())
		}
	}
	o.set("serve.hits", tiers["hit"])
	o.set("serve.store_hits", tiers["store"])
	o.set("serve.cold", tiers["cold"])
	o.set("serve.coalesced", tiers["coalesced"])
	o.set("serve.hit_ratio", (tiers["hit"]+tiers["store"])/float64(len(samples)))
	o.set("serve.rejected", d.counter("serve/admit/rejected"))
	o.set("serve.errors", d.counter("serve/errors"))
	o.set("serve.batch_leaders", d.counter("serve/batch/leaders"))
	o.set("serve.batch_joined", d.counter("serve/batch/joined"))
	o.set("serve.batch_memo_hits", d.counter("serve/batch/memo_hits"))
	o.set("serve.hit_p50_ms", quantile(hitMs, 0.50))
	o.set("serve.hit_p99_ms", quantile(hitMs, 0.99))
	o.set("serve.cold_p50_ms", quantile(coldMs, 0.50))
	o.set("serve.cold_p99_ms", quantile(coldMs, 0.99))
	o.set("loadgen.wait_p99_ms", quantile(waits, 0.99))
	o.set("loadgen.late_max_ms", quantile(late, 1))
	if len(scrapes) > 0 {
		o.set("telemetry.scrape_ms", median(scrapes))
	}
	gateHot(o, m, hot)
	o.set("serve.max_rps", capacity(e, o, d, m, hot))

	// The daemon's profile memo is warm from the pre-warm; each replay
	// gets a memo in the same state, filled before either is timed.
	var memos []*profile.Cache
	for range 2 {
		profiles := profile.NewBoundedCache(128)
		for _, k := range kernels.All() {
			if _, err := prepare(nil, k.Name, k, serviceScale, synth.DefaultOptions(), profiles); err != nil {
				return nil, err
			}
		}
		memos = append(memos, profiles)
	}
	var counts simCounts
	err = replayPair(e, o, "synth_service", func(t *tracer) error {
		profiles := memos[0]
		if t != nil {
			profiles = memos[1]
		}
		h0, m0 := profiles.Stats()
		var err error
		counts, err = replayService(e, o, t, d, m, profiles, sched, samples)
		h1, m1 := profiles.Stats()
		publishProfiles(o, h1-h0, m1-m0)
		return err
	})
	if err != nil {
		return nil, err
	}
	counts.publish(o, 0, 0)
	return o, nil
}

// replayService walks the schedule serially. A request whose identity
// the daemon has answered goes over HTTP and must come back with the
// bytes the untraced run received; any other request runs the daemon's
// cold path in-process — canonicalize, store probe, Canonical.Prepare,
// Canonical.Evaluate, persist — and its body must equal the daemon's.
// A /metrics scrape falls due every second of schedule time.
func replayService(e *env, o *outcome, t *tracer, d *daemon, m *mix, profiles *profile.Cache,
	sched []entry, samples []sample) (simCounts, error) {
	var counts simCounts
	store, err := newStore(e, "replay-store")
	if err != nil {
		return counts, err
	}
	defer os.RemoveAll(store.Dir)
	cal := serve.DefaultCalBlob()
	seen := map[string]bool{}
	for _, r := range m.hot {
		c, err := serve.Canonicalize(r, cal)
		if err != nil {
			return counts, err
		}
		seen[c.Key] = true
	}
	scrapeDue := time.Second
	for i, en := range sched {
		for ; scrapeDue <= en.Due; scrapeDue += time.Second {
			t.do("telemetry.scrape", "metrics", func() { err = scrape(d.client, d.base+"/metrics") })
			if err != nil {
				return counts, err
			}
		}
		id := fmt.Sprintf("req-%d", i)
		req := en.Req
		req.Configs = slices.Clone(req.Configs)
		var c *serve.Canonical
		t.do("serve.canonicalize", id, func() { c, err = serve.Canonicalize(req, cal) })
		if err != nil {
			return counts, err
		}
		var body []byte
		if seen[c.Key] {
			var status int
			t.do("serve.http", id, func() { status, _, body, err = post(d.client, d.synthURL(), en.Body) })
			if err != nil || status != 200 {
				return counts, fmt.Errorf("replay %s: status %d: %v", id, status, err)
			}
		} else {
			t.do("archive.get", c.RunID, func() { _, _, err = store.Get(c.RunID) })
			if err != nil {
				return counts, err
			}
			var s *sim.Setup
			t.do("serve.prepare", id, func() { s, err = c.Prepare(profiles, t.logger()) })
			if err != nil {
				return counts, err
			}
			var rep *serve.Report
			t.do("serve.evaluate", id, func() { body, rep, err = c.Evaluate(s) })
			if err != nil {
				return counts, err
			}
			counts.addRows(rep.Results)
			t.do("archive.save", c.RunID, func() {
				var reqBlob []byte
				if reqBlob, err = json.Marshal(c.Req); err == nil {
					_, err = store.Save(archive.FromServe(c.Req.Scale, c.Key, reqBlob, c.Req.Sampled, body))
				}
			})
			if err != nil {
				return counts, err
			}
			seen[c.Key] = true
		}
		if samples[i].ok() && !bytes.Equal(body, samples[i].body) {
			o.gate("replayed body of %s differs from the daemon's", id)
		}
	}
	return counts, nil
}
