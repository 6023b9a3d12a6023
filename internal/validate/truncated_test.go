package validate

// Tests pinning the MaxViolations cap contract across the engines. A
// parallel run buffers violations per chunk and merges once; a merge
// that drops buffered violations must flip Truncated, so a *completed*
// chunk never under-reports truncation. (Chunks never started once the
// cap is reached remain the documented weakness: Truncated may be false
// even though further violations exist, but true is always trustworthy.)

import "testing"

// capConfigs is every engine configuration whose cap semantics the tests
// below pin. The naive pair scans share the rule-by-rule collector path,
// so the rule-by-rule entry covers them.
var capConfigs = []struct {
	name string
	set  func(*Options)
}{
	{"seq/rule-by-rule", func(o *Options) { o.Engine = EngineRuleByRule }},
	{"seq/fused", func(o *Options) { o.Engine = EngineFused }},
	{"par4/fused", func(o *Options) { o.Engine = EngineFused; o.Workers = 4 }},
}

// TestTruncatedSingleTaskOverflow drops two required properties of one
// node, so a single rule or chunk — in any engine — carries both DS5
// violations. With MaxViolations = 1 the chunk's merge must drop one of
// them and flip Truncated; this is deterministic because the overflow
// happens inside one completed chunk, never across the chunk skip.
func TestTruncatedSingleTaskOverflow(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "id")
	g.DeleteNodeProp(u, "login")

	full := Validate(s, g, Options{})
	if len(full.Violations) != 2 || full.Truncated {
		t.Fatalf("setup: want exactly 2 violations untruncated, got %v (truncated=%v)",
			full.Violations, full.Truncated)
	}
	for _, cfg := range capConfigs {
		opts := Options{MaxViolations: 1}
		cfg.set(&opts)
		res := Validate(s, g, opts)
		if len(res.Violations) != 1 || !res.Truncated {
			t.Errorf("%s: max=1: got %d violations, truncated=%v; want 1, true",
				cfg.name, len(res.Violations), res.Truncated)
		}
	}
}

// TestTruncatedExactCapAllEngines sets the cap to the exact violation
// count: no engine may report truncation. This is deterministic even in
// parallel — the collector only becomes full once every violation has
// been collected, so no violation-carrying chunk can be skipped.
func TestTruncatedExactCapAllEngines(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "id")
	g.DeleteNodeProp(u, "login")

	for _, cfg := range capConfigs {
		opts := Options{MaxViolations: 2}
		cfg.set(&opts)
		res := Validate(s, g, opts)
		if len(res.Violations) != 2 || res.Truncated {
			t.Errorf("%s: max=2: got %d violations, truncated=%v; want 2, false",
				cfg.name, len(res.Violations), res.Truncated)
		}
	}
}

// TestTruncatedFusedPassBoundary pins the sequential fused engine's
// exactness across pass boundaries: the cap fills in the node pass (DS5)
// while the only other violation lives in the edge pass (SS4), so the
// engine must notice the overflow when the edge pass's emit is rejected.
func TestTruncatedFusedPassBoundary(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	sess := g.NodesLabeled("UserSession")[0]
	g.DeleteNodeProp(u, "login")    // one DS5 violation (node pass)
	g.MustAddEdge(u, sess, "knows") // one SS4 violation (edge pass)

	full := Validate(s, g, Options{Engine: EngineFused})
	if len(full.Violations) != 2 || full.Truncated {
		t.Fatalf("setup: want exactly 2 violations untruncated, got %v (truncated=%v)",
			full.Violations, full.Truncated)
	}
	capped := Validate(s, g, Options{Engine: EngineFused, MaxViolations: 1})
	if len(capped.Violations) != 1 || !capped.Truncated {
		t.Errorf("max=1: got %d violations, truncated=%v; want 1, true",
			len(capped.Violations), capped.Truncated)
	}
	exact := Validate(s, g, Options{Engine: EngineFused, MaxViolations: 2})
	if len(exact.Violations) != 2 || exact.Truncated {
		t.Errorf("max=2: got %d violations, truncated=%v; want 2, false",
			len(exact.Violations), exact.Truncated)
	}
}
