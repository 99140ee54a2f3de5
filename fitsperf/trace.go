package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"
)

// span is one recorded call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`       // the kernel, design point or request served
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at the root
}

// tracer records spans from one goroutine; the traced replays are
// serial so that self times add up to the wall clock. A nil tracer
// records nothing, which is how the untraced replay measures the
// tracing overhead with the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named after the layer it calls.
func (t *tracer) do(name, id string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Start: int64(time.Since(t.t0)), Parent: parent})
	t.open = append(t.open, i)
	f()
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// stageSpans names the layer of each stage sim.PrepareWith times in its
// "prepare stages" record (the attribute <stage>_sec).
var stageSpans = map[string]string{
	"build":     "kernels.build",
	"assemble":  "arm.assemble",
	"profile":   "profile.collect",
	"synth":     "synth.synthesize",
	"translate": "translate.translate",
	"thumb":     "thumb.size",
	"predecode": "cpu.predecode",
}

// logger returns the logger to hand sim.PrepareWith: its handler turns
// each "prepare stages" record into child spans of the open span, laid
// end to end from that span's start in the order the program timed
// them, so the ledger itemizes a preparation by the program's own
// clock. A nil tracer returns nil, which leaves the stage timing off.
func (t *tracer) logger() *slog.Logger {
	if t == nil {
		return nil
	}
	return slog.New(stageHandler{t})
}

type stageHandler struct{ t *tracer }

func (h stageHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h stageHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h stageHandler) WithGroup(string) slog.Handler            { return h }

func (h stageHandler) Handle(_ context.Context, r slog.Record) error {
	t := h.t
	if r.Message != "prepare stages" || len(t.open) == 0 {
		return nil
	}
	parent := t.open[len(t.open)-1]
	at := t.spans[parent].Start
	now := int64(time.Since(t.t0))
	r.Attrs(func(a slog.Attr) bool {
		stage, ok := strings.CutSuffix(a.Key, "_sec")
		if !ok {
			return true
		}
		name, ok := stageSpans[stage]
		if !ok {
			name = "sim.stage." + stage // undeclared: reconcile gates it
		}
		end := min(at+int64(a.Value.Float64()*1e9), now)
		t.spans = append(t.spans, span{Name: name, ID: t.spans[parent].ID, Start: at, End: end, Parent: parent})
		at = end
		return true
	})
	return nil
}

// ledger reduces the spans to per-layer self time (a span's duration
// minus the part its children cover) and the total time covered by
// root spans.
func (t *tracer) ledger() (self map[string]float64, covered float64) {
	self = map[string]float64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += float64(d-child[i]) / 1e9
		if s.Parent < 0 {
			covered += float64(d) / 1e9
		}
	}
	return self, covered
}

// unaccountedTolerance bounds the share of the traced wall clock no
// layer span covers (the replay's own loop, digests and bookkeeping).
const unaccountedTolerance = 0.05

// reconcile publishes the ledger of a traced replay that took wall
// seconds and gates its conservation: every span is a declared layer,
// the self times plus the unaccounted rest equal the wall clock, and
// the unaccounted rest stays under unaccountedTolerance of it.
func (t *tracer) reconcile(o *outcome, wall float64) {
	self, covered := t.ledger()
	known := map[string]bool{}
	sum := 0.0
	for _, name := range layerSpans {
		known[name] = true
		o.set(name+"_s", self[name])
		sum += self[name]
	}
	for name := range self {
		if !known[name] {
			o.gate("span %q is not a declared layer", name)
		}
	}
	unaccounted := wall - covered
	o.set("bench.unaccounted_s", unaccounted)
	o.set("bench.traced_wall_s", wall)
	if diff := sum + unaccounted - wall; diff > 1e-6*wall || -diff > 1e-6*wall {
		o.gate("ledger does not reconcile: self %.6fs + unaccounted %.6fs != wall %.6fs", sum, unaccounted, wall)
	}
	if unaccounted < 0 || unaccounted > unaccountedTolerance*wall {
		o.gate("unaccounted %.3fs is outside [0, %.0f%%] of the traced wall %.3fs",
			unaccounted, 100*unaccountedTolerance, wall)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// newLayerOutcome starts a traced run's outcome with every per-layer
// metric at 0, so a layer the workload never reaches still prints.
func newLayerOutcome() *outcome {
	o := newOutcome()
	for _, d := range perLayer {
		o.set(d.Name, 0)
	}
	return o
}

// replayPair runs a serial replay twice — untraced, then traced — and
// publishes the traced ledger, the tracing overhead and the spans file.
// replay must build fresh state on every call.
func replayPair(e *env, o *outcome, name string, replay func(*tracer) error) error {
	plain, err := timed(func() error { return replay(nil) })
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	t := newTracer()
	if err := replay(t); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	wall := time.Since(t.t0).Seconds()
	o.set("bench.trace_overhead_frac", wall/plain-1)
	t.reconcile(o, wall)
	e.logf("%s: replay %.3fs untraced, %.3fs traced, %d spans", name, plain, wall, len(t.spans))
	return t.write(e.spanPath(name))
}
