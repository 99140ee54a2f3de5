package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configures a load-generation run against a serve daemon.
type LoadOptions struct {
	// URL is the /synth endpoint (e.g. "http://127.0.0.1:8080/synth").
	URL string
	// Workers is the number of closed-loop clients (default 4): each
	// keeps exactly one request in flight, so offered load tracks
	// service capacity instead of queueing unboundedly in the client.
	Workers int
	// Requests caps the total issued requests; 0 runs until Duration.
	Requests int
	// Duration bounds the run when Requests is 0 (default 5s).
	Duration time.Duration
	// HitFraction is the share of requests drawn from the fixed hot
	// request (cache hits after the first); the rest carry a unique
	// synthesis identity and force cold work. It must lie in [0, 1];
	// 0 issues only cold requests.
	HitFraction float64
	// Kernel is the base program for both mixes (default "crc32").
	Kernel string
	// Scale is the workload scale (0 = kernel default).
	Scale int
	// Sampled switches the timing estimator.
	Sampled bool
	// Seed fixes the hit/miss coin flips (0 = 1).
	Seed int64
	// CheckBodies verifies responses: every 200 must decode as a
	// Report, and every response to the hot request must be
	// byte-identical to the first one — the zero-corruption check the
	// soak test runs under -race.
	CheckBodies bool
	// Client overrides the HTTP client (default: no timeout —
	// closed-loop workers bound concurrency by construction).
	Client *http.Client
}

// LoadStats is one latency population summary. Percentiles are exact
// (computed from the full sample set).
type LoadStats struct {
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// LoadReport is the outcome of one loadgen run.
type LoadReport struct {
	Sent      int64   `json:"sent"`
	OK        int64   `json:"ok"`
	Hits      int64   `json:"hits"`     // X-Powerfits-Cache: hit|store
	Cold      int64   `json:"cold"`     // cold|coalesced
	Rejected  int64   `json:"rejected"` // HTTP 429
	Errors    int64   `json:"errors"`   // transport errors, unexpected statuses, corrupt bodies
	Elapsed   float64 `json:"elapsed_sec"`
	ReqPerSec float64 `json:"req_per_sec"`

	Hit    LoadStats `json:"hit_latency"`
	ColdLt LoadStats `json:"cold_latency"`

	// FirstError carries the first verification or transport failure.
	FirstError string `json:"first_error,omitempty"`
}

// loadWorkerState accumulates one worker's samples; merged after the
// run (no cross-worker synchronization on the hot path).
type loadWorkerState struct {
	hitLat  []time.Duration
	coldLat []time.Duration
}

// RunLoad drives a closed-loop load against a daemon and reports
// throughput, mix and latency percentiles. ctx cancels the run early.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if !(opts.HitFraction >= 0 && opts.HitFraction <= 1) {
		return nil, fmt.Errorf("serve: hit fraction %v outside [0, 1]", opts.HitFraction)
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Requests == 0 && opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Kernel == "" {
		opts.Kernel = "crc32"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}

	hot, err := json.Marshal(Request{Kernel: opts.Kernel, Scale: opts.Scale, Sampled: opts.Sampled})
	if err != nil {
		return nil, err
	}

	if opts.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	var (
		rep      LoadReport
		issued   atomic.Int64
		nonce    atomic.Int64
		hotBody  atomic.Pointer[[]byte]
		firstErr atomic.Pointer[string]
	)
	fail := func(msg string) {
		atomic.AddInt64(&rep.Errors, 1)
		firstErr.CompareAndSwap(nil, &msg)
	}

	states := make([]*loadWorkerState, opts.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		st := &loadWorkerState{}
		states[w] = st
		rng := rand.New(rand.NewSource(opts.Seed + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if opts.Requests > 0 && issued.Add(1) > int64(opts.Requests) {
					return
				}
				wantHot := rng.Float64() < opts.HitFraction
				body := hot
				if !wantHot {
					// A unique dictionary budget gives each miss its own
					// synthesis identity: same program (profile memoized),
					// fresh synthesize+simulate — a true cold request.
					miss := Request{Kernel: opts.Kernel, Scale: opts.Scale, Sampled: opts.Sampled,
						Synth: SynthKnobs{DictCap: 256 + int(nonce.Add(1))}}
					body, _ = json.Marshal(miss)
				}
				atomic.AddInt64(&rep.Sent, 1)

				t0 := time.Now()
				resp, err := post(ctx, client, opts.URL, body)
				lat := time.Since(t0)
				if err != nil {
					if ctx.Err() != nil {
						// Abandoned at the deadline: uncount it so
						// Sent == OK + Rejected + Errors holds exactly.
						atomic.AddInt64(&rep.Sent, -1)
						return
					}
					fail("post: " + err.Error())
					continue
				}
				payload, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					if ctx.Err() != nil {
						atomic.AddInt64(&rep.Sent, -1)
						return
					}
					fail("read: " + err.Error())
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					atomic.AddInt64(&rep.OK, 1)
					tier := resp.Header.Get("X-Powerfits-Cache")
					if tier == "hit" || tier == "store" {
						atomic.AddInt64(&rep.Hits, 1)
						st.hitLat = append(st.hitLat, lat)
					} else {
						atomic.AddInt64(&rep.Cold, 1)
						st.coldLat = append(st.coldLat, lat)
					}
					if opts.CheckBodies {
						if msg := verifyBody(payload, wantHot, &hotBody); msg != "" {
							fail(msg)
						}
					}
				case http.StatusTooManyRequests:
					atomic.AddInt64(&rep.Rejected, 1)
				default:
					fail(fmt.Sprintf("unexpected status %d: %s", resp.StatusCode, bytes.TrimSpace(payload)))
				}
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start).Seconds()
	if rep.Elapsed > 0 {
		rep.ReqPerSec = float64(rep.Sent) / rep.Elapsed
	}

	var hits, colds []time.Duration
	for _, st := range states {
		hits = append(hits, st.hitLat...)
		colds = append(colds, st.coldLat...)
	}
	rep.Hit = summarize(hits)
	rep.ColdLt = summarize(colds)
	if p := firstErr.Load(); p != nil {
		rep.FirstError = *p
	}
	return &rep, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

// verifyBody checks one 200 response for corruption: it must decode as
// a Report, and hot responses must be byte-identical across the whole
// run (the first one observed is the reference).
func verifyBody(payload []byte, hot bool, ref *atomic.Pointer[[]byte]) string {
	var rep Report
	if err := json.Unmarshal(payload, &rep); err != nil {
		return "corrupt response body: " + err.Error()
	}
	if rep.Schema != ReportSchema {
		return fmt.Sprintf("response schema %q, want %q", rep.Schema, ReportSchema)
	}
	if !hot {
		return ""
	}
	p := append([]byte(nil), payload...)
	if !ref.CompareAndSwap(nil, &p) {
		if !bytes.Equal(*ref.Load(), payload) {
			return "hot response bytes diverged between requests"
		}
	}
	return ""
}

func summarize(lats []time.Duration) LoadStats {
	s := LoadStats{Count: int64(len(lats))}
	if len(lats) == 0 {
		return s
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	s.P50, s.P95, s.P99, s.Max = pick(0.50), pick(0.95), pick(0.99), lats[len(lats)-1]
	return s
}

// Render writes the report as aligned text (the loadgen CLI's output).
func (r *LoadReport) Render(w io.Writer) {
	fmt.Fprintf(w, "requests  %d sent, %d ok (%d hit / %d cold), %d rejected, %d errors\n",
		r.Sent, r.OK, r.Hits, r.Cold, r.Rejected, r.Errors)
	fmt.Fprintf(w, "rate      %.1f req/s over %.2fs\n", r.ReqPerSec, r.Elapsed)
	line := func(name string, s LoadStats) {
		if s.Count == 0 {
			return
		}
		fmt.Fprintf(w, "%-9s p50 %s  p95 %s  p99 %s  max %s  (n=%d)\n",
			name, s.P50, s.P95, s.P99, s.Max, s.Count)
	}
	line("hit", r.Hit)
	line("cold", r.ColdLt)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", r.FirstError)
	}
}
