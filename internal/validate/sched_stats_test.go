package validate

// Scheduler-telemetry and adaptive-chunking tests: the deterministic
// skewed fixture drives real steals through the work-stealing pool, the
// telemetry invariants (per-worker sums, span histogram) are pinned on
// every run, and the feedback loop (EMA convergence, skew halving,
// efficiency-driven worker fallback) is exercised white-box.

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

// skewedGraph is programGraph plus a hub Author whose relatedAuthor
// fan-out dwarfs every other node: the node pass's cost is concentrated
// in the hub's chunk, which is exactly the shape work stealing exists
// for. The hub keeps the graph conformant — all targets distinct, no
// loop.
func skewedGraph(n, hubDegree int) *pg.Graph {
	g := pg.New()
	hub := g.AddNode("Author")
	g.SetNodeProp(hub, "name", values.String("hub"))
	targets := make([]pg.NodeID, hubDegree)
	for i := range targets {
		a := g.AddNode("Author")
		g.SetNodeProp(a, "name", values.String("spoke-"+strconv.Itoa(i)))
		targets[i] = a
		g.MustAddEdge(hub, a, "relatedAuthor")
	}
	for i := 0; i < n; i++ {
		b := g.AddNode("Book")
		g.SetNodeProp(b, "title", values.String("book-"+strconv.Itoa(i)))
		e := g.MustAddEdge(b, targets[i%hubDegree], "author")
		g.SetEdgeProp(e, "since", values.Int(int64(2000+i%20)))
		p := g.AddNode("Publisher")
		g.MustAddEdge(p, b, "published")
	}
	return g
}

// checkStatsInvariants pins the structural telemetry contract: totals
// are the per-worker sums, the span histogram covers every planned
// chunk, and a run that did work has busy time.
func checkStatsInvariants(t *testing.T, st *SchedStats) {
	t.Helper()
	if st == nil {
		t.Fatal("SchedStats requested but Result.Sched is nil")
	}
	if len(st.PerWorker) != st.Workers {
		t.Fatalf("PerWorker has %d entries for %d workers", len(st.PerWorker), st.Workers)
	}
	var busy time.Duration
	chunks, steals := 0, 0
	for i := range st.PerWorker {
		pw := &st.PerWorker[i]
		busy += pw.Busy
		chunks += pw.Chunks
		steals += pw.Steals
		if pw.MaxChunk > st.MaxChunk {
			t.Errorf("worker %d MaxChunk %v exceeds run MaxChunk %v", i, pw.MaxChunk, st.MaxChunk)
		}
	}
	if busy != st.Busy {
		t.Errorf("Busy %v != per-worker sum %v", st.Busy, busy)
	}
	if steals != st.Steals {
		t.Errorf("Steals %d != per-worker sum %d", st.Steals, steals)
	}
	if chunks != st.Chunks {
		t.Errorf("executed chunks %d != planned chunks %d", chunks, st.Chunks)
	}
	hist := 0
	for _, c := range st.SpanHist {
		hist += c
	}
	if hist != st.Chunks {
		t.Errorf("span histogram covers %d chunks, planned %d", hist, st.Chunks)
	}
	if st.Chunks > 0 && st.Busy <= 0 {
		t.Error("run executed chunks but recorded no busy time")
	}
	if st.Wall <= 0 {
		t.Error("no wall time recorded")
	}
}

func TestSchedStatsSequential(t *testing.T) {
	s := build(t, programSchema)
	g := programGraph(300)
	res := Validate(s, g, Options{SchedStats: true, Program: Compile(s)})
	if !res.OK() {
		t.Fatalf("fixture not conformant: %v", res.Violations)
	}
	checkStatsInvariants(t, res.Sched)
	if res.Sched.Workers != 1 {
		t.Errorf("sequential run reports %d workers", res.Sched.Workers)
	}
	if res.Sched.Steals != 0 {
		t.Errorf("sequential run cannot steal, got %d", res.Sched.Steals)
	}
}

// TestSchedStatsRangePlanByDefault pins the one fused plan: with no
// option beyond a worker count — the shape the server's /validate and
// ValidateStream run — the passes split into range chunks, so a graph
// of a few thousand elements plans more chunks than it has passes (node,
// edge, DS4, DS7). Sequential runs execute the same plan.
func TestSchedStatsRangePlanByDefault(t *testing.T) {
	s := build(t, programSchema)
	g := programGraph(1000)
	for _, workers := range []int{2, 1} {
		res := Validate(s, g, Options{Engine: EngineFused, Workers: workers, SchedStats: true})
		if !res.OK() {
			t.Fatalf("fixture not conformant: %v", res.Violations)
		}
		checkStatsInvariants(t, res.Sched)
		if res.Sched.Workers != workers {
			t.Errorf("workers=%d: run used %d workers", workers, res.Sched.Workers)
		}
		if res.Sched.Chunks <= 4 {
			t.Errorf("workers=%d: planned %d chunks over %d elements, want more than one per pass",
				workers, res.Sched.Chunks, g.NodeBound()+g.EdgeBound())
		}
	}
}

func TestSchedStatsSkewedStealsAndTimings(t *testing.T) {
	s := build(t, programSchema)
	g := skewedGraph(4000, 2000)
	p := Compile(s)
	opts := Options{
		Program:    p,
		Workers:    4,
		SchedStats: true,
	}
	// Steal counts depend on goroutine interleaving, so the hard
	// assertion is over a handful of attempts: with the hub node's cost
	// concentrated in one segment, a run where every worker only ever
	// drained its own segment is the exception, not the rule.
	stole := false
	for attempt := 0; attempt < 20; attempt++ {
		res := Validate(s, g, opts)
		if !res.OK() {
			t.Fatalf("skewed fixture not conformant: %v", res.Violations)
		}
		checkStatsInvariants(t, res.Sched)
		if res.Sched.Workers != 4 {
			t.Fatalf("run used %d workers, want 4", res.Sched.Workers)
		}
		if res.Sched.Chunks < 8 {
			t.Fatalf("range plan planned only %d chunks", res.Sched.Chunks)
		}
		if res.Sched.MaxChunk <= 0 {
			t.Fatal("no per-chunk wall time recorded")
		}
		if res.Sched.Steals > 0 {
			stole = true
			break
		}
	}
	if !stole {
		t.Error("no steals in 20 runs over the skewed fixture")
	}
}

// TestAdaptiveSpanFeedback drives the planner's feedback loop directly:
// chunk spans derive from the observed per-element cost, halve under
// recorded skew, and converge under the EMA as repeated observations
// agree.
func TestAdaptiveSpanFeedback(t *testing.T) {
	s := build(t, programSchema)
	p := Compile(s)
	const bound, workers = 1 << 20, 4

	// No feedback yet: the planner falls back to the fixed split.
	if got, want := adaptiveSpan(taskNodePass, bound, workers, p.sched.Load()), defaultSpan(bound, workers); got != want {
		t.Fatalf("span without feedback = %d, want default %d", got, want)
	}

	// 100ns/elem observed → target span = targetChunkNs/100.
	obs := &schedFeedback{}
	obs.nsPerElem[taskNodePass] = 100
	p.noteSched(obs)
	want := int(targetChunkNs / 100)
	if got := adaptiveSpan(taskNodePass, bound, workers, p.sched.Load()); got != want {
		t.Fatalf("span after first observation = %d, want %d", got, want)
	}

	// EMA convergence: repeated 400ns/elem observations pull the span
	// toward targetChunkNs/400 geometrically.
	for i := 0; i < 12; i++ {
		obs := &schedFeedback{}
		obs.nsPerElem[taskNodePass] = 400
		p.noteSched(obs)
	}
	got := adaptiveSpan(taskNodePass, bound, workers, p.sched.Load())
	want = int(targetChunkNs / 400)
	if diff := got - want; diff < -want/10 || diff > want/10 {
		t.Fatalf("span did not converge: got %d, want ~%d", got, want)
	}

	// Recorded skew above the threshold halves the span.
	skewed := &schedFeedback{}
	skewed.nsPerElem[taskNodePass] = 400
	skewed.skew[taskNodePass] = 2 * skewHalveThreshold // EMA with prior skew 0 lands above threshold
	p.noteSched(skewed)
	fb := p.sched.Load()
	if fb.skew[taskNodePass] <= skewHalveThreshold {
		t.Fatalf("merged skew %.2f not above threshold", fb.skew[taskNodePass])
	}
	whole := int(targetChunkNs / fb.nsPerElem[taskNodePass])
	if got := adaptiveSpan(taskNodePass, bound, workers, fb); got != whole/2 {
		t.Fatalf("skewed span = %d, want halved %d", got, whole/2)
	}

	// The span never collapses below the floor or above the
	// keep-everyone-busy ceiling.
	tiny := &schedFeedback{}
	tiny.nsPerElem[taskNodePass] = 1e9
	for i := 0; i < 20; i++ {
		p.noteSched(tiny)
	}
	if got := adaptiveSpan(taskNodePass, bound, workers, p.sched.Load()); got != minChunkSpan {
		t.Fatalf("span floor: got %d, want %d", got, minChunkSpan)
	}
	cheap := &schedFeedback{}
	cheap.nsPerElem[taskNodePass] = 1e-6
	for i := 0; i < 40; i++ {
		p.noteSched(cheap)
	}
	if got, max := adaptiveSpan(taskNodePass, bound, workers, p.sched.Load()), bound/(2*workers); got > max {
		t.Fatalf("span ceiling: got %d, max %d", got, max)
	}
}

// TestAutotuneWorkersFallback pins the efficiency fallback: a program
// whose runs measured poor parallel efficiency resolves an autotuned
// (Workers == 0) request down toward sequential; explicit requests and
// efficient programs are untouched.
func TestAutotuneWorkersFallback(t *testing.T) {
	s := build(t, programSchema)

	fresh := Compile(s)
	if got := fresh.autotuneWorkers(8); got != 8 {
		t.Errorf("no feedback: autotune changed workers to %d", got)
	}

	good := Compile(s)
	good.noteSched(&schedFeedback{efficiency: 0.9})
	if got := good.autotuneWorkers(8); got != 8 {
		t.Errorf("efficient program: autotune changed workers to %d", got)
	}

	bad := Compile(s)
	for i := 0; i < 10; i++ {
		bad.noteSched(&schedFeedback{efficiency: 0.25})
	}
	got := bad.autotuneWorkers(8)
	if got >= 8 || got < 1 {
		t.Errorf("inefficient program: autotune(8) = %d, want in [1, 8)", got)
	}

	awful := Compile(s)
	for i := 0; i < 10; i++ {
		awful.noteSched(&schedFeedback{efficiency: 0.01})
	}
	if got := awful.autotuneWorkers(8); got != 1 {
		t.Errorf("near-zero efficiency: autotune(8) = %d, want 1", got)
	}
}

// TestParallelCancellationNoLeak cancels a parallel validation and
// checks both the Incomplete contract and that the worker pool fully
// drains — no goroutine outlives its Run.
func TestParallelCancellationNoLeak(t *testing.T) {
	s := build(t, programSchema)
	g := skewedGraph(4000, 2000)
	p := Compile(s)
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: every chunk claim sees it
		res := ValidateContext(ctx, s, g, Options{
			Program: p,
			Workers: 4,
		})
		if !res.Incomplete {
			t.Fatal("cancelled run not marked Incomplete")
		}
	}

	// The pool joins before ValidateContext returns; give the runtime a
	// few scheduling quanta to retire exiting goroutines.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
