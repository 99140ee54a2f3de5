package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"powerfits/internal/asm"
	"powerfits/internal/kernels"
	"powerfits/internal/serve"
)

// The service's traffic comes from an open-loop generator of the
// benchmark's own: arrivals follow a seeded Poisson schedule whatever the
// daemon's speed, one dispatcher goroutine hands each due request to the
// first free of two client connections, and every request is timed from
// its due time, so a stall shows as latency of the requests behind it.
// (serve.RunLoad is closed-loop, and its HitFraction == 0 default turns a
// requested 0 % hit mix into 90 %; it is not used here.)

type reqKind uint8

const (
	kindHot      reqKind = iota // a request of the pre-warmed hot set
	kindCold                    // a fresh synthesis identity over a built-in kernel
	kindAsm                     // a fresh identity over assembly source
	kindCoalesce                // one of two identical cold requests due at once
)

// entry is one scheduled request.
type entry struct {
	Due  time.Duration `json:"due_ns"` // offset from the schedule start
	Kind reqKind       `json:"kind"`
	Hot  int           `json:"hot"` // hot-set index, -1 for cold kinds
	Req  serve.Request `json:"req"`
	Body []byte        `json:"body"`
}

// Traffic dimensions of the mix.
const (
	serviceScale = 1
	coldEvery    = 10 // one cold request in every block of this many arrivals
	asmEvery     = 8  // one cold request in this many carries assembly source
	pairEvery    = 12 // one cold request in this many is an identical pair
)

// coldSubsets are the configuration subsets cold requests rotate over.
var coldSubsets = [][]string{
	nil, // all four
	{"ARM16", "FITS8"},
	{"FITS8"},
	{"ARM8", "FITS16", "FITS8"},
}

// hotSet is the pre-warmed population: every kernel at scale 1, exact
// and sampled, all configurations.
func hotSet() []serve.Request {
	var out []serve.Request
	for _, k := range kernels.All() {
		for _, sampled := range []bool{false, true} {
			out = append(out, serve.Request{Kernel: k.Name, Scale: serviceScale, Sampled: sampled})
		}
	}
	return out
}

// mix generates request bodies. Its nonce makes every cold request a
// synthesis identity the daemon has never seen.
type mix struct {
	hot    []serve.Request
	hotRaw [][]byte
	asmSrc map[string]string // kernel → assembly text at scale 1
	nonce  int
}

func newMix() (*mix, error) {
	m := &mix{hot: hotSet(), asmSrc: map[string]string{}}
	for _, r := range m.hot {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		m.hotRaw = append(m.hotRaw, b)
	}
	for _, k := range kernels.All() {
		m.asmSrc[k.Name] = asm.Format(k.Build(serviceScale))
	}
	return m, nil
}

// cold returns the i-th fresh request of a stratified stream: each run
// of len(hot) cold requests covers every kernel × {exact, sampled} once
// (order drawn from rng), so the cold population — and with it the
// tail latency — is the same whatever the seed.
func (m *mix) cold(rng *rand.Rand, perm *[]int, asmSource bool) serve.Request {
	if len(*perm) == 0 {
		*perm = rng.Perm(len(m.hot))
	}
	slot := (*perm)[0]
	*perm = (*perm)[1:]
	base := m.hot[slot]
	m.nonce++
	req := serve.Request{Scale: serviceScale, Sampled: base.Sampled,
		Configs: coldSubsets[slot%len(coldSubsets)]}
	if asmSource {
		req.Asm = m.asmSrc[base.Kernel]
		req.Name = fmt.Sprintf("%s-u%d", base.Kernel, m.nonce)
	} else {
		req.Kernel = base.Kernel
		req.Synth.DictCap = 256 + m.nonce
	}
	return req
}

// coldBatch is one fresh request per hot-set slot, all configurations.
func (m *mix) coldBatch() []serve.Request {
	out := make([]serve.Request, len(m.hot))
	for i, h := range m.hot {
		m.nonce++
		out[i] = serve.Request{Kernel: h.Kernel, Scale: serviceScale, Sampled: h.Sampled,
			Synth: serve.SynthKnobs{DictCap: 256 + m.nonce}}
	}
	return out
}

// schedule draws an open-loop arrival schedule of n arrivals (rounded
// up to whole blocks of coldEvery) at rate requests per second:
// exponential inter-arrival gaps, one cold request at a seeded position
// in every block, every asmEvery-th cold request over assembly source
// and every pairEvery-th an identical pair due at the same instant.
// Drawing a count rather than a duration keeps the cold population of a
// schedule fixed. The same seed and mix state give a byte-identical
// schedule.
func (m *mix) schedule(seed int64, rate float64, n int) ([]entry, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []entry
	var perm []int
	nCold := 0
	t := 0.0
	for block := 0; block*coldEvery < n; block++ {
		coldAt := rng.Intn(coldEvery)
		for j := 0; j < coldEvery; j++ {
			t += rng.ExpFloat64() / rate
			due := time.Duration(t * 1e9)
			if j != coldAt {
				h := rng.Intn(len(m.hot))
				out = append(out, entry{Due: due, Kind: kindHot, Hot: h, Req: m.hot[h], Body: m.hotRaw[h]})
				continue
			}
			nCold++
			kind := kindCold
			switch {
			case nCold%asmEvery == 0:
				kind = kindAsm
			case nCold%pairEvery == 0:
				kind = kindCoalesce
			}
			req := m.cold(rng, &perm, kind == kindAsm)
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			e := entry{Due: due, Kind: kind, Hot: -1, Req: req, Body: body}
			out = append(out, e)
			if kind == kindCoalesce {
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// sample is the outcome of one sent request.
type sample struct {
	kind       reqKind
	hot        int
	due        time.Duration
	sent, done time.Duration // offsets from the schedule start
	status     int
	tier       string // X-Powerfits-Cache
	body       []byte
	err        error
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latencyMs is the request's latency from its due time; a failed or
// refused request misses any limit.
func (s *sample) latencyMs() float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return float64(s.done-s.due) / 1e6
}

func (s *sample) waitMs() float64 { return float64(s.sent-s.due) / 1e6 }

// newClient returns an HTTP client holding at most n connections.
func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// post sends one /synth request and reads the whole response.
func post(client *http.Client, url string, body []byte) (int, string, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Powerfits-Cache"), b, err
}

// drive sends sched to url over conns connections and returns one
// sample per entry (in schedule order) plus the dispatcher's own
// lateness per entry: how far past the due time its timer woke it. Time
// spent waiting for a free connection is not lateness; it shows in each
// sample's wait (due → sent) and latency.
func drive(client *http.Client, url string, sched []entry, conns int) ([]sample, []float64) {
	samples := make([]sample, len(sched))
	late := make([]float64, len(sched))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &samples[i]
				s.sent = time.Since(start)
				s.status, s.tier, s.body, s.err = post(client, url, sched[i].Body)
				s.done = time.Since(start)
			}
		}()
	}
	for i, en := range sched {
		samples[i].kind, samples[i].hot, samples[i].due = en.Kind, en.Hot, en.Due
		if d := en.Due - time.Since(start); d > 0 {
			time.Sleep(d)
			late[i] = float64(time.Since(start)-en.Due) / 1e6
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return samples, late
}

// closedBatch sends bodies over conns connections, each keeping one
// request in flight, and returns the samples (due = start) and the
// batch's wall-clock seconds.
func closedBatch(client *http.Client, url string, bodies [][]byte, conns int) ([]sample, float64) {
	sched := make([]entry, len(bodies))
	for i, b := range bodies {
		sched[i] = entry{Kind: kindCold, Hot: -1, Body: b}
	}
	t0 := time.Now()
	samples, _ := drive(client, url, sched, conns)
	return samples, time.Since(t0).Seconds()
}

// scrape fetches url (a /metrics endpoint) once and discards the body.
func scrape(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return nil
}

// monitor scrapes url once per interval on its own connection, as an
// operator's monitor would, until stop is called; stop waits for it and
// returns each scrape's latency in ms and the count of failures.
func monitor(url string, every time.Duration) (stop func() ([]float64, int)) {
	var (
		ms     []float64
		failed int
		wg     sync.WaitGroup
	)
	done := make(chan struct{})
	client := newClient(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t := time.Now()
			if err := scrape(client, url); err != nil {
				failed++
				continue
			}
			ms = append(ms, float64(time.Since(t))/1e6)
		}
	}()
	return func() ([]float64, int) {
		close(done)
		wg.Wait()
		client.CloseIdleConnections()
		return ms, failed
	}
}
