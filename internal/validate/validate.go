// Package validate implements the paper's notion of schema satisfaction
// for Property Graphs (Section 5) and thereby the schema validation
// problem of §6.1:
//
//   - weak satisfaction (Definition 5.1, rules WS1–WS4),
//   - directives satisfaction (Definition 5.2, rules DS1–DS7), and
//   - strong satisfaction (Definition 5.3, rules SS1–SS4 on top of the
//     former two).
//
// Every rule is independently addressable; a validation run reports all
// violations (or up to a configurable limit) with the graph elements and
// schema elements involved. The fused engine exploits the observation
// behind Theorem 1 that all rules are constant-depth first-order
// conditions evaluable independently per graph element: it splits its
// passes into range chunks that run sequentially or, when
// Options.Workers > 1, on a work-stealing pool. The rule-by-rule engine
// is the definitional, always-sequential reference the fused engine is
// tested against.
//
// Options.CollectTimings records per-rule durations in both engines.
// The rule-by-rule engine measures each rule's wall-clock time. The
// fused engine evaluates several rules per pass, so it attributes each
// chunk's time evenly across the rules the chunk evaluated and sums the
// shares across workers: under parallel runs a rule's duration measures
// CPU cost, not elapsed wall-clock time of the run.
package validate

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/sched"
	"pgschema/internal/schema"
)

// SchedStats is the scheduler telemetry of one validation run — chunk
// counts, steals, per-worker busy/idle fractions, and the chunk-size
// histogram. It aliases the sched package's Stats so servers and CLIs
// can consume it without importing internal/sched.
type SchedStats = sched.Stats

// Rule identifies one satisfaction rule from Definitions 5.1–5.3.
type Rule string

// The rules, named as in the paper.
const (
	WS1 Rule = "WS1" // node properties must be of the required type
	WS2 Rule = "WS2" // edge properties must be of the required type
	WS3 Rule = "WS3" // target nodes must be of the required type
	WS4 Rule = "WS4" // non-list fields contain at most one edge

	DS1 Rule = "DS1" // @distinct: edges identified by nodes and label
	DS2 Rule = "DS2" // @noLoops: no loops
	DS3 Rule = "DS3" // @uniqueForTarget: at most one incoming edge
	DS4 Rule = "DS4" // @requiredForTarget: at least one incoming edge
	DS5 Rule = "DS5" // @required on attribute: property is required
	DS6 Rule = "DS6" // @required on relationship: edge is required
	DS7 Rule = "DS7" // @key: key properties identify nodes

	SS1 Rule = "SS1" // all nodes are justified
	SS2 Rule = "SS2" // all node properties are justified
	SS3 Rule = "SS3" // all edge properties are justified
	SS4 Rule = "SS4" // all edges are justified
)

// WeakRules are the rules of weak satisfaction (Definition 5.1).
var WeakRules = []Rule{WS1, WS2, WS3, WS4}

// DirectiveRules are the rules of directives satisfaction (Definition 5.2).
var DirectiveRules = []Rule{DS1, DS2, DS3, DS4, DS5, DS6, DS7}

// StrongOnlyRules are the additional rules of strong satisfaction
// (Definition 5.3).
var StrongOnlyRules = []Rule{SS1, SS2, SS3, SS4}

// AllRules lists every rule in paper order.
var AllRules = func() []Rule {
	var all []Rule
	all = append(all, WeakRules...)
	all = append(all, DirectiveRules...)
	all = append(all, StrongOnlyRules...)
	return all
}()

// Mode selects which satisfaction notion to check.
type Mode int

// The satisfaction modes.
const (
	// Strong checks strong satisfaction (Definition 5.3): all rules.
	Strong Mode = iota
	// Weak checks weak satisfaction only (Definition 5.1): WS1–WS4.
	Weak
	// Directives checks directives satisfaction only (Definition 5.2).
	Directives
)

// Violation is one reported failure of a rule. NodeID and EdgeID are -1
// when the violation does not concern a specific node or edge.
type Violation struct {
	Rule     Rule
	Message  string
	Node     pg.NodeID // primary node involved, or -1
	Edge     pg.EdgeID // primary edge involved, or -1
	TypeName string    // schema type involved, if any
	Field    string    // schema field involved, if any
	Property string    // property name involved, if any
}

// String renders the violation as "RULE: message".
func (v Violation) String() string { return string(v.Rule) + ": " + v.Message }

// Result is the outcome of a validation run.
type Result struct {
	Violations []Violation
	// Truncated reports that MaxViolations capped the run: at least one
	// violation beyond the reported ones exists in the graph. The
	// reported list is a canonically sorted subset — not a prefix — of
	// the full violation set. The sequential engine computes Truncated
	// exactly (it keeps scanning after the cap fills until it either
	// sees one more violation or exhausts the rules or chunks). A
	// parallel run skips chunks not yet started once the cap is reached,
	// so it may report Truncated == false even though further violations
	// exist; Truncated == true is always trustworthy.
	Truncated bool
	// RuleTime holds per-rule durations when Options.CollectTimings was
	// set: wall-clock time per rule for the rule-by-rule engine, chunk
	// time attributed per rule and summed across workers for the fused
	// engine (see the package comment).
	RuleTime map[Rule]time.Duration
	// Incomplete marks a partial result: the run's context was cancelled
	// before every element was checked. Violations found up to that
	// point are reported, but absence of a violation proves nothing.
	// An incomplete result must not seed Revalidate.
	Incomplete bool
	// Engine is the concrete engine that produced the result.
	Engine Engine
	// Workers is the resolved worker count the run used (after clamping
	// and autotuning); 1 means sequential.
	Workers int
	// Sched holds the run's scheduler telemetry when Options.SchedStats
	// was set and the fused engine ran (nil otherwise). Sequential runs
	// report Workers == 1 stats with zero steals.
	Sched *SchedStats
}

// OK reports whether no violations were found.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// ByRule groups the violations by rule.
func (r *Result) ByRule() map[Rule][]Violation {
	out := make(map[Rule][]Violation)
	for _, v := range r.Violations {
		out[v.Rule] = append(out[v.Rule], v)
	}
	return out
}

// Engine selects the evaluation strategy of a validation run.
type Engine int

// The engines.
const (
	// EngineAuto picks the fused engine, unless NaivePairScan demands
	// the rule-by-rule engine (the naive pair scans are rule-by-rule
	// implementations).
	EngineAuto Engine = iota
	// EngineRuleByRule runs one full node/edge sweep per rule — the
	// definitional shape, kept for differential testing and ablation.
	EngineRuleByRule
	// EngineFused runs one pass over the nodes and one pass over the
	// edges, evaluating every applicable rule per element against a
	// per-run resolution cache. DS4 and DS7 keep dedicated passes that
	// share the cache. The violation set is identical to
	// EngineRuleByRule (proven by the differential harness).
	EngineFused
)

// String names the engine as accepted by the server and CLI.
func (e Engine) String() string {
	switch e {
	case EngineRuleByRule:
		return "rule-by-rule"
	case EngineFused:
		return "fused"
	}
	return "auto"
}

// Options configures a validation run. The zero value checks strong
// satisfaction sequentially with unlimited violations.
type Options struct {
	Mode Mode
	// Rules restricts the run to the listed rules (intersected with the
	// rules of Mode). Nil means all rules of the mode.
	Rules []Rule
	// MaxViolations stops the run once this many violations have been
	// collected; 0 means unlimited.
	MaxViolations int
	// Workers runs the fused engine's chunks on a work-stealing pool
	// of that many workers when > 1. 0 normally means sequential, but
	// under EngineAuto a graph of at least autotuneElements elements
	// autotunes to GOMAXPROCS workers. The value is clamped by
	// EffectiveWorkers (floor 1, cap 8×GOMAXPROCS and the graph's
	// element count); negative values mean sequential. The rule-by-rule
	// engine is always sequential and ignores it.
	Workers int
	// CollectTimings records per-rule durations into Result.RuleTime.
	CollectTimings bool
	// SchedStats records chunk-scheduler telemetry (per-chunk wall time,
	// steal counts, per-worker busy fractions, chunk-size histogram)
	// into Result.Sched. Fused engine only; the telemetry needed for
	// adaptive chunking is collected by parallel runs regardless — this
	// flag only controls whether it is surfaced on the Result.
	SchedStats bool
	// NaivePairScan disables the adjacency-index implementations of
	// WS4/DS1/DS3 in favour of the textbook O(|E|²) pair scans from the
	// definitions. For the ablation benchmark only; it applies to the
	// rule-by-rule engine and makes EngineAuto resolve to it.
	NaivePairScan bool
	// Engine selects the evaluation strategy; EngineAuto (the zero
	// value) uses the fused engine.
	Engine Engine
	// Program supplies a validation program compiled from the schema by
	// Compile, letting repeated runs over the same (schema, graph) pair
	// skip recompilation and binding. Nil — or a program compiled from
	// a different schema than the one passed to Validate — compiles on
	// the fly, preserving the uncompiled behavior exactly. Only the
	// fused engine consults it.
	Program *Program
}

// ResolvedEngine reports the concrete engine the options select — what
// resolveEngine picks when Engine is EngineAuto. Callers (server, CLI)
// use it to report which engine produced a result.
func (o Options) ResolvedEngine() Engine { return o.resolveEngine() }

// autotuneElements is the graph size (nodes + edges, by ID bound) above
// which EngineAuto turns parallelism on by itself. Below it the
// scheduling overhead rivals the work and — more importantly — the
// sequential engine's exact Truncated semantics are worth keeping for
// interactive graph sizes.
const autotuneElements = 100_000

// EffectiveWorkers resolves Options.Workers to the worker count a
// Validate call over a graph with the given element count (node bound +
// edge bound) actually uses:
//
//   - Workers == 0 under EngineAuto on a graph of at least
//     autotuneElements elements autotunes to GOMAXPROCS — million-element
//     graphs parallelize without the caller having to know the machine;
//   - negative values and 0 otherwise mean sequential;
//   - values above 8×GOMAXPROCS are clamped (the generous factor keeps
//     deliberately oversubscribed test configurations exercising the
//     parallel code paths on small machines);
//   - the worker count never exceeds the element count (a worker with no
//     possible elements is pure overhead).
//
// 1 means a sequential run, which EngineRuleByRule (also when selected
// by NaivePairScan) always is. Servers and CLIs report this value so
// operators can see what an autotuned run actually did.
func (o Options) EffectiveWorkers(elements int) int {
	if o.resolveEngine() == EngineRuleByRule {
		return 1
	}
	w := o.Workers
	if w == 0 && o.Engine == EngineAuto && elements >= autotuneElements {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if cap := 8 * runtime.GOMAXPROCS(0); w > cap {
		w = cap
	}
	if elements > 0 && w > elements {
		w = elements
	}
	return w
}

// resolveEngine maps EngineAuto to a concrete engine.
func (o Options) resolveEngine() Engine {
	switch o.Engine {
	case EngineRuleByRule, EngineFused:
		return o.Engine
	}
	if o.NaivePairScan {
		return EngineRuleByRule
	}
	return EngineFused
}

func (o Options) rules() []Rule {
	var base []Rule
	switch o.Mode {
	case Weak:
		base = WeakRules
	case Directives:
		base = DirectiveRules
	default:
		base = AllRules
	}
	if o.Rules == nil {
		return base
	}
	want := make(map[Rule]bool, len(o.Rules))
	for _, r := range o.Rules {
		want[r] = true
	}
	var out []Rule
	for _, r := range base {
		if want[r] {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks the graph against the schema and returns all violations
// found. The schema must have been built by schema.Build (and is assumed
// consistent, as the paper assumes in §4.3).
func Validate(s *schema.Schema, g *pg.Graph, opts Options) *Result {
	return ValidateContext(context.Background(), s, g, opts)
}

// ValidateContext is Validate under a context. Cancellation is observed
// at chunk-claim boundaries — between work chunks in the fused engine,
// between rules in the rule-by-rule engine — so a cancelled
// context stops the run before the next unit of work starts, never
// mid-element. The result of a cancelled run has Incomplete set and
// carries whatever violations were found before the stop.
func ValidateContext(ctx context.Context, s *schema.Schema, g *pg.Graph, opts Options) *Result {
	rules := opts.rules()
	// Resolve Workers once — clamped and, under EngineAuto on large
	// graphs, autotuned — so every engine below sees a sane count. An
	// autotuned count (Workers was 0) may be scaled back further below
	// once the program's measured parallel efficiency is known.
	origWorkers := opts.Workers
	opts.Workers = opts.EffectiveWorkers(g.NodeBound() + g.EdgeBound())
	engine := opts.resolveEngine()
	finish := func(res *Result, timings map[Rule]time.Duration) *Result {
		res.RuleTime = timings
		res.Engine = engine
		res.Workers = opts.Workers
		res.Incomplete = ctx.Err() != nil
		return res
	}
	c := newCollector(opts.MaxViolations)
	run := &runner{s: s, g: g, opts: opts, coll: c, ctx: ctx}
	if engine == EngineFused {
		p := opts.Program
		if p == nil || p.s != s {
			var err error
			p, err = CompileContext(ctx, s)
			if err != nil {
				return finish(&Result{}, nil)
			}
		}
		// Autotuned (not explicitly requested) worker counts consult the
		// program's measured parallel efficiency: on a machine where
		// parallel runs of this program never paid off — a single-core
		// container — fall back toward sequential instead of eating the
		// dispatch overhead again.
		if origWorkers == 0 && opts.Workers > 1 {
			opts.Workers = p.autotuneWorkers(opts.Workers)
			run.opts.Workers = opts.Workers
		}
		timings, st := run.fused(p, rules, c)
		res := finish(c.result(), timings)
		if opts.SchedStats {
			res.Sched = st
		}
		return res
	}
	var timings map[Rule]time.Duration
	if opts.CollectTimings {
		timings = make(map[Rule]time.Duration, len(rules))
	}
	for _, r := range rules {
		// Keep scanning after the cap fills: the first rejected emit
		// proves a violation beyond the cap exists, which makes
		// Truncated exact in sequential mode.
		if c.truncated() || run.cancelled() {
			break
		}
		start := time.Now()
		run.runRule(r, c.emit)
		if timings != nil {
			timings[r] += time.Since(start)
		}
	}
	return finish(c.result(), timings)
}

// collector accumulates violations with an optional cap, safely across
// goroutines.
type collector struct {
	mu         sync.Mutex
	violations []Violation
	max        int
	overflow   bool // an emit was rejected: violations beyond max exist
}

func newCollector(max int) *collector { return &collector{max: max} }

func (c *collector) emit(v Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && len(c.violations) >= c.max {
		c.overflow = true
		return
	}
	c.violations = append(c.violations, v)
}

func (c *collector) full() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max > 0 && len(c.violations) >= c.max
}

// dropFull reports whether the cap is already reached, flipping the
// overflow flag when it is. Rule bodies call it (via runner.drop) at
// the moment a violation is established but before formatting its
// message, so a full collector costs no fmt.Sprintf allocations:
// skipping the emit is equivalent to emitting and having the collector
// reject it, because the collector never shrinks.
func (c *collector) dropFull() bool {
	if c.max <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) >= c.max {
		c.overflow = true
		return true
	}
	return false
}

// merge splices a chunk-local violation buffer into the collector under
// a single lock. Buffered violations beyond the cap are dropped but
// still flip overflow, so a completed chunk never under-reports
// truncation (the cap contract parallel runs rely on).
func (c *collector) merge(buf []Violation) {
	if len(buf) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 {
		room := c.max - len(c.violations)
		if room < 0 {
			room = 0
		}
		if len(buf) > room {
			c.overflow = true
			buf = buf[:room]
		}
	}
	c.violations = append(c.violations, buf...)
}

// truncated reports whether an emit was rejected by the cap, i.e. the
// collected set is provably incomplete.
func (c *collector) truncated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow
}

func (c *collector) result() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.violations, func(i, j int) bool {
		a, b := c.violations[i], c.violations[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Edge != b.Edge {
			return a.Edge < b.Edge
		}
		return a.Message < b.Message
	})
	return &Result{Violations: c.violations, Truncated: c.overflow}
}

// runner binds a schema and graph for one validation run.
type runner struct {
	s    *schema.Schema
	g    *pg.Graph
	opts Options

	// ctx is the run's context; nil means non-cancellable. Engines poll
	// cancelled() at chunk-claim boundaries only — never inside an
	// element loop — so cancellation cost stays off the hot path.
	ctx context.Context

	// bind is the compiled program bound to the graph, set by the fused
	// engine; the rule-by-rule engine leaves it nil.
	bind *binding

	// coll is the run's collector, consulted by drop() to skip
	// formatting violations that a full collector would reject anyway.
	// Nil means never drop.
	coll *collector

	// onlyTypes restricts DS7 to the types related to a delta's labels —
	// the fused incremental DS7 chunk; nil means every type.
	onlyTypes map[string]bool
}

// drop reports whether the imminent violation should be skipped because
// the collector is already full. Callers must invoke it only once a
// violation is certain — it flips the Truncated flag.
func (r *runner) drop() bool { return r.coll != nil && r.coll.dropFull() }

// cancelled reports whether the run's context has been cancelled.
func (r *runner) cancelled() bool { return r.ctx != nil && r.ctx.Err() != nil }

// typeAllowed reports whether DS7 should consider the type under the
// restriction (a type is relevant when an affected label is ⊑ it).
func (r *runner) typeAllowed(name string) bool {
	if r.onlyTypes == nil {
		return true
	}
	for label := range r.onlyTypes {
		if r.s.SubtypeNamed(label, name) {
			return true
		}
	}
	return false
}

type emitFunc func(Violation)

// runRule evaluates one rule over the whole graph.
func (r *runner) runRule(rule Rule, emit emitFunc) {
	switch rule {
	case WS1:
		r.ws1(emit)
	case WS2:
		r.ws2(emit)
	case WS3:
		r.ws3(emit)
	case WS4:
		r.ws4(emit)
	case DS1:
		r.ds1(emit)
	case DS2:
		r.ds2(emit)
	case DS3:
		r.ds3(emit)
	case DS4:
		r.ds4(emit)
	case DS5:
		r.ds5(emit)
	case DS6:
		r.ds6(emit)
	case DS7:
		r.ds7(emit)
	case SS1:
		r.ss1(emit)
	case SS2:
		r.ss2(emit)
	case SS3:
		r.ss3(emit)
	case SS4:
		r.ss4(emit)
	}
}

func nodeRef(id pg.NodeID) string { return "node n" + strconv.Itoa(int(id)) }

func edgeRef(id pg.EdgeID) string { return "edge e" + strconv.Itoa(int(id)) }
