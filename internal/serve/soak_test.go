package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"powerfits/internal/archive"
)

// TestServeSoakAtSaturation drives a deliberately under-provisioned
// daemon (1 worker, 1 queue slot) with 8 closed-loop clients for long
// enough to exercise every tier — memory hits, store hits, coalesced
// flights, cold computes and fast-fail rejections — and requires the
// sustained-throughput contract: zero transport errors, zero corrupted
// or divergent responses (CheckBodies), overload answered with bounded
// 429s rather than queue growth, and a /metrics scrape that succeeds
// mid-soak without blocking behind the request plane. Run under -race
// this is also the concurrency proof for the shared setup/profile/LRU
// state.
func TestServeSoakAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	svc := New(Options{
		Store:   archive.NewStore(t.TempDir()),
		Workers: 1,
		Queue:   1,
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Mid-soak scrapes: the observability plane must stay responsive
	// while the request plane is saturated.
	scrapeDone := make(chan error, 1)
	go func() {
		var firstErr error
		for i := 0; i < 5; i++ {
			time.Sleep(150 * time.Millisecond)
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				firstErr = err
				break
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				firstErr = err
				break
			}
		}
		scrapeDone <- firstErr
	}()

	rep, err := RunLoad(context.Background(), LoadOptions{
		URL:         srv.URL + "/synth",
		Workers:     8,
		Duration:    1500 * time.Millisecond,
		HitFraction: 0.5,
		Kernel:      "crc32",
		Scale:       1,
		CheckBodies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d sent, %d ok (%d hit / %d cold), %d rejected, %.0f req/s",
		rep.Sent, rep.OK, rep.Hits, rep.Cold, rep.Rejected, rep.ReqPerSec)

	if rep.Errors != 0 {
		t.Fatalf("%d errors during soak; first: %s", rep.Errors, rep.FirstError)
	}
	if rep.OK == 0 || rep.Hits == 0 || rep.Cold == 0 {
		t.Fatalf("soak did not exercise all tiers: %d ok, %d hit, %d cold",
			rep.OK, rep.Hits, rep.Cold)
	}
	if rep.Rejected == 0 {
		t.Fatal("8 clients against 1 worker + 1 queue slot produced no 429s: admission control is not bounding load")
	}
	if rep.Sent != rep.OK+rep.Rejected+rep.Errors {
		t.Fatalf("request accounting leaks: %d sent != %d ok + %d rejected + %d errors",
			rep.Sent, rep.OK, rep.Rejected, rep.Errors)
	}

	if err := <-scrapeDone; err != nil {
		t.Fatalf("mid-soak /metrics scrape failed: %v", err)
	}

	// The bounded queue means pending admissions can never exceed
	// workers + queue; handlers abandoned by clients at the deadline
	// finish server-side shortly after, then everything has drained.
	deadline := time.Now().Add(5 * time.Second)
	for svc.admit.pending.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := svc.admit.pending.Load(); n != 0 {
		t.Fatalf("admission queue did not drain: %d pending", n)
	}
	hits, storeHits, misses := svc.CacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("cache stats = %d hits / %d store / %d misses", hits, storeHits, misses)
	}
}

// TestLoadHitFractionBounds: a zero hit fraction issues only cold
// requests (it is not a stand-in for a default mix), and fractions
// outside [0, 1] are refused before any request is sent.
func TestLoadHitFractionBounds(t *testing.T) {
	svc := New(Options{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	rep, err := RunLoad(context.Background(), LoadOptions{
		URL:         srv.URL + "/synth",
		Workers:     2,
		Requests:    6,
		HitFraction: 0,
		Kernel:      "crc32",
		Scale:       1,
		Sampled:     true,
		CheckBodies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors; first: %s", rep.Errors, rep.FirstError)
	}
	if rep.OK != 6 || rep.Cold != 6 || rep.Hits != 0 {
		t.Fatalf("HitFraction 0: %d ok, %d cold, %d hits; want 6 cold, 0 hits", rep.OK, rep.Cold, rep.Hits)
	}
	if hits, storeHits, _ := svc.CacheStats(); hits != 0 || storeHits != 0 {
		t.Fatalf("HitFraction 0 reached the result cache: %d hits, %d store hits", hits, storeHits)
	}

	for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := RunLoad(context.Background(), LoadOptions{URL: srv.URL + "/synth", HitFraction: frac}); err == nil {
			t.Errorf("HitFraction %v accepted", frac)
		}
	}
}
