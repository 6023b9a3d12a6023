package validate

import (
	"context"
	"math/bits"

	"pgschema/internal/pg"
	"pgschema/internal/schema"
)

// Delta lists the graph elements touched by a mutation batch: nodes that
// were added, relabeled, or had properties changed, and edges that were
// added, removed, or had properties changed. Removed edges may be listed
// (their endpoints are still resolvable); removed nodes may be listed
// too (they are skipped as tombstones, and their incident-edge removals
// pull the former neighbours into the region).
type Delta struct {
	Nodes []pg.NodeID
	Edges []pg.EdgeID
	// Labels lists additional node types whose @key buckets must be
	// recomputed: the former labels of relabeled or removed nodes (the
	// current label is derived from Nodes automatically). Without this,
	// a relabeled node could leave a stale key-conflict report behind.
	Labels []string
}

// DeltaFor translates the mutation summary of a pg.Graph.Apply into the
// Delta Revalidate consumes. The correspondence is direct — Touched
// already lists every element whose rule inputs changed plus the former
// labels DS7 needs.
func DeltaFor(t pg.Touched) Delta {
	return Delta{Nodes: t.Nodes, Edges: t.Edges, Labels: t.Labels}
}

// idBits is a dense bitset over element IDs. Region construction and
// membership tests sit on the small-delta hot path (they rival the rule
// work itself for ≤1% deltas), so the sets are bit vectors sized to the
// graph bound rather than hash maps: set/has are a shift and a mask,
// and flattening to a sorted scan list is a word-wise sweep with no
// sort call.
type idBits []uint64

func newIDBits(bound int) idBits { return make(idBits, (bound+63)/64) }

// setBit marks id, growing the vector when id lies beyond the graph
// bound (undone additions — kept only so splicing can match them).
func (b *idBits) setBit(id int) {
	w := id >> 6
	if w >= len(*b) {
		grown := make(idBits, w+1)
		copy(grown, *b)
		*b = grown
	}
	(*b)[w] |= 1 << (uint(id) & 63)
}

func (b idBits) has(id int) bool {
	w := id >> 6
	return w < len(b) && b[w]&(1<<(uint(id)&63)) != 0
}

func (b idBits) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// deltaRegion is the blast radius of a delta, split by the element
// space each rule group quantifies over.
type deltaRegion struct {
	nodeSet   idBits          // WS1, SS1, SS2, DS5: the delta nodes
	edgeSet   idBits          // WS2, WS3, SS3, SS4: delta + incident edges
	sourceSet idBits          // WS4, DS1, DS2, DS6: delta nodes ∪ sources of region edges
	targetSet idBits          // DS3, DS4: delta nodes ∪ targets of region edges
	affected  map[string]bool // DS7: types ⊒-related to a delta label
}

// regionOf computes the influence region of a delta on the current
// graph state:
//
//	WS1, SS1, SS2, DS5      the delta nodes themselves
//	WS2, WS3, SS3, SS4      the delta edges and all edges incident to a
//	                        delta node (λ(v1)/λ(v2) feed edge rules)
//	WS4, DS1, DS2, DS6      delta nodes and sources of region edges
//	DS3, DS4                delta nodes and targets of region edges
//	DS7                     every node type ⊒-related to a delta label
//	                        (key buckets are global per type)
func regionOf(g *pg.Graph, delta Delta) deltaRegion {
	// A delta produced by an Undo can reference elements that were
	// appended by the undone Apply and popped again — their IDs sit
	// beyond the current bounds. They stay in the sets (setBit grows
	// past the bound, so splicing drops any prev violations that
	// mention them) but cannot be traversed or scanned.
	nb, eb := g.NodeBound(), g.EdgeBound()
	reg := deltaRegion{
		nodeSet:   newIDBits(nb),
		edgeSet:   newIDBits(eb),
		sourceSet: newIDBits(nb),
		targetSet: newIDBits(nb),
		affected:  make(map[string]bool, 4),
	}
	for _, n := range delta.Nodes {
		reg.nodeSet.setBit(int(n))
		reg.sourceSet.setBit(int(n))
		reg.targetSet.setBit(int(n))
		if int(n) >= nb {
			continue
		}
		// Node types whose key buckets may have shifted. Removed nodes
		// still expose their former label, so they contribute too.
		reg.affected[g.NodeLabel(n)] = true
		// A node's label and existence feed into the edge-scoped rules
		// of every incident edge (WS2/WS3/SS3/SS4 key off λ(v1) and
		// λ(v2)), so incident edges — including freshly removed ones —
		// join the region.
		for _, e := range g.AllOutEdges(n) {
			reg.edgeSet.setBit(int(e))
		}
		for _, e := range g.AllInEdges(n) {
			reg.edgeSet.setBit(int(e))
		}
	}
	for _, e := range delta.Edges {
		reg.edgeSet.setBit(int(e))
	}
	for _, e := range sortedEdgeList(reg.edgeSet, eb) {
		src, dst := g.Endpoints(e)
		reg.sourceSet.setBit(int(src))
		reg.targetSet.setBit(int(dst))
	}
	for _, l := range delta.Labels {
		reg.affected[l] = true
	}
	return reg
}

// elements is the region's total dirty-element count — the work size
// parallelism decisions key on.
func (reg deltaRegion) elements() int {
	return reg.sourceSet.count() + reg.targetSet.count() + reg.edgeSet.count()
}

// sortedNodeList flattens a dirty set into a scannable list, dropping
// IDs beyond the graph's current bound (undone additions — present in
// the set only so splicing can match them). The word-order sweep
// yields ascending IDs for free.
func sortedNodeList(set idBits, bound int) []pg.NodeID {
	out := make([]pg.NodeID, 0, set.count())
	for wi, w := range set {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			if id >= bound {
				return out
			}
			out = append(out, pg.NodeID(id))
			w &= w - 1
		}
	}
	return out
}

func sortedEdgeList(set idBits, bound int) []pg.EdgeID {
	out := make([]pg.EdgeID, 0, set.count())
	for wi, w := range set {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			if id >= bound {
				return out
			}
			out = append(out, pg.EdgeID(id))
			w &= w - 1
		}
	}
	return out
}

// Revalidate produces the full validation result after a mutation
// without re-checking the entire graph: it re-runs each rule only over
// the region the delta can influence (see regionOf) and splices the
// fresh findings into prev.
//
// prev must be a complete result (not Truncated, not Incomplete) for
// the same schema, mode, and rule set over the graph state before the
// mutation; the returned result then equals what a full ValidateContext
// with the same options would produce on the current state — the
// equivalence the differential harness verifies. When prev is nil,
// truncated, or incomplete there is nothing sound to splice into, and
// Revalidate falls back to a full run.
//
// EngineAuto and EngineFused run the region through delta-scoped fused
// passes over the epoch's snapshot (chunked onto the work-stealing pool
// when Options.Workers asks for it); MaxViolations is ignored — a
// spliced result is only coherent when both sides are complete.
// EngineRuleByRule, the sequential reference engine, has no incremental
// form: it runs a full ValidateContext, whose result the incremental
// one equals by the contract above. Cancellation is observed at chunk
// boundaries; a cancelled run returns with Incomplete set, and such a
// result must not seed a later Revalidate.
func Revalidate(ctx context.Context, s *schema.Schema, g *pg.Graph, prev *Result, delta Delta, opts Options) *Result {
	engine := opts.resolveEngine()
	if prev == nil || prev.Truncated || prev.Incomplete || engine == EngineRuleByRule {
		return ValidateContext(ctx, s, g, opts)
	}
	rules := opts.rules()
	reg := regionOf(g, delta)
	// Worker resolution keys on the dirty-element count, not the graph
	// size: a small delta on a huge graph is small work.
	origWorkers := opts.Workers
	opts.Workers = opts.EffectiveWorkers(reg.elements())

	finish := func(res *Result) *Result {
		res.Engine = engine
		res.Workers = opts.Workers
		res.Incomplete = ctx.Err() != nil
		return res
	}

	p := opts.Program
	if p == nil || p.s != s {
		var err error
		p, err = CompileContext(ctx, s)
		if err != nil {
			return finish(&Result{})
		}
	}
	// Autotuned worker counts fall back toward sequential when the
	// program's measured parallel efficiency says parallelism is not
	// paying, as in ValidateContext.
	if origWorkers == 0 && opts.Workers > 1 {
		opts.Workers = p.autotuneWorkers(opts.Workers)
	}
	c := newCollector(0)
	// onlyTypes is consulted by the DS7 chunk alone.
	r := &runner{s: s, g: g, opts: opts, ctx: ctx, coll: c, bind: p.bindTo(g), onlyTypes: reg.affected}
	timings, st := r.runChunks(r.planDirtyChunks(wantRules(rules), reg), rules, c)
	out := splice(r, prev, c.result(), reg)
	out.RuleTime = timings
	if opts.SchedStats {
		out.Sched = st
	}
	return finish(out)
}

// RevalidateWithOptions is the pre-context signature of Revalidate.
//
// Deprecated: use Revalidate, which takes the run context first.
func RevalidateWithOptions(s *schema.Schema, g *pg.Graph, prev *Result, delta Delta, opts Options) *Result {
	return Revalidate(context.Background(), s, g, prev, delta, opts)
}

// planDirtyChunks plans the delta-scoped fused work: the region's
// sorted dirty lists chunked for the work-stealing cursor, each chunk
// carrying only the rules whose influence region it covers. DS4 runs as
// a dirty pass testing candidates against each declaration's
// target-label syms (no enumeration build), and DS7 stays a single
// restricted task over the runner's onlyTypes.
func (r *runner) planDirtyChunks(w fusedWant, reg deltaRegion) []fusedChunk {
	workers := r.opts.Workers
	if workers < 1 {
		workers = 1
	}
	var chunks []fusedChunk
	add := func(kind fusedTaskKind, cw fusedWant, nodes []pg.NodeID, edges []pg.EdgeID, bound int) {
		base := len(chunks)
		chunks = appendRangeChunks(chunks, kind, -1, bound, defaultSpan(bound, workers))
		for i := base; i < len(chunks); i++ {
			chunks[i].w, chunks[i].nodes, chunks[i].edges = cw, nodes, edges
		}
	}
	if cw := (fusedWant{ws1: w.ws1, ss1: w.ss1, ss2: w.ss2, ds5: w.ds5}); cw != (fusedWant{}) {
		list := sortedNodeList(reg.nodeSet, r.g.NodeBound())
		add(taskNodePass, cw, list, nil, len(list))
	}
	if cw := (fusedWant{ws4: w.ws4, ds1: w.ds1, ds2: w.ds2, ds6: w.ds6}); cw != (fusedWant{}) {
		list := sortedNodeList(reg.sourceSet, r.g.NodeBound())
		add(taskNodePass, cw, list, nil, len(list))
	}
	if w.ds3 || w.ds4 {
		list := sortedNodeList(reg.targetSet, r.g.NodeBound())
		if w.ds3 {
			add(taskNodePass, fusedWant{ds3: true}, list, nil, len(list))
		}
		if w.ds4 {
			add(taskDS4Dirty, fusedWant{ds4: true}, list, nil, len(list))
		}
	}
	if cw := (fusedWant{ws2: w.ws2, ws3: w.ws3, ss3: w.ss3, ss4: w.ss4}); cw != (fusedWant{}) {
		list := sortedEdgeList(reg.edgeSet, r.g.EdgeBound())
		add(taskEdgePass, cw, nil, list, len(list))
	}
	if w.ds7 {
		chunks = append(chunks, fusedChunk{kind: taskDS7, decl: -1, w: fusedWant{ds7: true}})
	}
	return chunks
}

// splice merges a fresh region result into the previous full result:
// prior violations anchored in the recomputed region are dropped, the
// rest kept, the fresh findings added, and the whole re-sorted
// canonically.
func splice(r *runner, prev, fresh *Result, reg deltaRegion) *Result {
	out := newCollector(0)
	for _, v := range prev.Violations {
		if staleViolation(r, v, reg) {
			continue
		}
		out.emit(v)
	}
	for _, v := range fresh.Violations {
		out.emit(v)
	}
	return out.result()
}

// staleViolation reports whether a prior violation lies in the region the
// delta invalidates (and was therefore recomputed).
func staleViolation(r *runner, v Violation, reg deltaRegion) bool {
	switch v.Rule {
	case WS1, SS1, SS2, DS5:
		return reg.nodeSet.has(int(v.Node)) || !r.g.HasNode(v.Node)
	case WS2, WS3, SS3, SS4:
		return reg.edgeSet.has(int(v.Edge)) || !r.g.HasEdge(v.Edge)
	case WS4, DS1, DS2, DS6:
		return reg.sourceSet.has(int(v.Node)) || !r.g.HasNode(v.Node)
	case DS3, DS4:
		return reg.targetSet.has(int(v.Node)) || !r.g.HasNode(v.Node)
	case DS7:
		if !r.g.HasNode(v.Node) {
			return true
		}
		for label := range reg.affected {
			if r.s.SubtypeNamed(label, v.TypeName) {
				return true
			}
		}
		return false
	}
	return true // unknown rule: be safe, recompute path dropped it
}
