package validate

// Allocation regression tests for the fused hot paths: on a
// violation-free graph with a compiled program bound, the node and edge
// passes must run essentially allocation-free. AllocsPerRun pins the
// budget so a stray fmt.Sprintf, map growth, or interface boxing on the
// happy path fails the suite rather than a benchmark someone has to
// remember to read.

import (
	"testing"
)

// allocRunner builds a runner wired the way the fused engine wires its
// workers: compiled program bound to a conformant graph, one scratch.
func allocRunner(t *testing.T) (*runner, fusedWant, *fusedScratch) {
	t.Helper()
	s := build(t, programSchema)
	g := programGraph(200)
	p := Compile(s)
	r := &runner{s: s, g: g, opts: Options{}}
	r.bind = p.bindTo(g)
	return r, wantRules(Options{}.rules()), newFusedScratch(r.bind.symCount)
}

func TestFusedNodePassAllocFree(t *testing.T) {
	r, w, sc := allocRunner(t)
	emit := func(v Violation) { t.Errorf("unexpected violation: %+v", v) }
	// Warm-up lets the DS1 seen map grow to its steady-state size.
	r.fusedNodePass(w, emit, nil, 0, r.g.NodeBound(), sc)

	nodes := r.g.NumNodes()
	avg := testing.AllocsPerRun(10, func() {
		r.fusedNodePass(w, emit, nil, 0, r.g.NodeBound(), sc)
	})
	// Budget: at most one allocation per 20 nodes — catches any
	// per-node allocation while tolerating incidental runtime noise.
	if limit := float64(nodes) / 20; avg > limit {
		t.Errorf("fused node pass: %.1f allocs per run over %d nodes (limit %.1f)", avg, nodes, limit)
	}
}

func TestFusedEdgePassAllocFree(t *testing.T) {
	r, w, _ := allocRunner(t)
	emit := func(v Violation) { t.Errorf("unexpected violation: %+v", v) }
	r.fusedEdgePass(w, emit, nil, 0, r.g.EdgeBound())

	edges := r.g.NumEdges()
	if edges == 0 {
		t.Fatal("conformant graph has no edges; edge-pass budget meaningless")
	}
	avg := testing.AllocsPerRun(10, func() {
		r.fusedEdgePass(w, emit, nil, 0, r.g.EdgeBound())
	})
	if limit := float64(edges) / 20; avg > limit {
		t.Errorf("fused edge pass: %.1f allocs per run over %d edges (limit %.1f)", avg, edges, limit)
	}
}

// TestFusedDensePassAllocFree pins the branch-free kernel paths: the
// word-walking node and edge passes over the presence bitsets must stay
// allocation-free once the kernels and scratch are warm.
func TestFusedDensePassAllocFree(t *testing.T) {
	r, w, sc := allocRunner(t)
	emit := func(v Violation) { t.Errorf("unexpected violation: %+v", v) }
	r.bind.kernels() // built once per epoch, outside the budget
	r.fusedNodePassDense(w, emit, 0, r.g.NodeBound(), sc)
	r.fusedEdgePassDense(w, emit, 0, r.g.EdgeBound())

	nodes := r.g.NumNodes()
	avg := testing.AllocsPerRun(10, func() {
		r.fusedNodePassDense(w, emit, 0, r.g.NodeBound(), sc)
	})
	if limit := float64(nodes) / 20; avg > limit {
		t.Errorf("dense node pass: %.1f allocs per run over %d nodes (limit %.1f)", avg, nodes, limit)
	}
	avg = testing.AllocsPerRun(10, func() {
		r.fusedEdgePassDense(w, emit, 0, r.g.EdgeBound())
	})
	if limit := float64(r.g.NumEdges()) / 20; avg > limit {
		t.Errorf("dense edge pass: %.1f allocs per run over %d edges (limit %.1f)", avg, r.g.NumEdges(), limit)
	}
}

// TestParallelAllocBudget pins the flat-allocation contract of the
// parallel engine end to end: a warm parallel validation may allocate
// at most twice what the warm sequential run does. The budget is
// measured, not hardcoded, so the test tracks the sequential baseline
// instead of rotting.
func TestParallelAllocBudget(t *testing.T) {
	s := build(t, programSchema)
	g := programGraph(2000)
	p := Compile(s)

	seqOpts := Options{Program: p, Workers: 1}
	parOpts := Options{Program: p, Workers: 4}
	// Warm the binding, kernels, pools, and scheduler state.
	Validate(s, g, seqOpts)
	Validate(s, g, parOpts)

	seq := testing.AllocsPerRun(20, func() {
		if !Validate(s, g, seqOpts).OK() {
			t.Fatal("fixture not conformant")
		}
	})
	par := testing.AllocsPerRun(20, func() {
		if !Validate(s, g, parOpts).OK() {
			t.Fatal("fixture not conformant")
		}
	})
	if par > 2*seq {
		t.Errorf("parallel run allocates %.0f/op, over 2x the sequential %.0f/op", par, seq)
	}
}
