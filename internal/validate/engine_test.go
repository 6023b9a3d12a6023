package validate

import (
	"fmt"
	"testing"
	"time"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

// pairScanGraph builds a graph with several WS4 and DS3 violations, each
// witnessed by more than one pair of edges spread across edge ids, so a
// pair scan that deduplicated by edge instead of by (source, field) or
// target would report one violation more than once.
func pairScanGraph() *pg.Graph {
	g := pg.New()
	var books []pg.NodeID
	for i := 0; i < 4; i++ {
		b := g.AddNode("Book")
		g.SetNodeProp(b, "title", values.String(fmt.Sprintf("b%d", i)))
		books = append(books, b)
	}
	var authors []pg.NodeID
	for i := 0; i < 4; i++ {
		authors = append(authors, g.AddNode("Author"))
	}
	for _, b := range books {
		g.MustAddEdge(b, authors[0], "author")
	}
	p := g.AddNode("Publisher")
	for _, b := range books {
		g.MustAddEdge(p, b, "published")
	}
	// WS4: every author holds three favoriteBook edges (non-list field)
	// with consecutive edge ids, so the witnessing pairs of one source
	// fall into different shards under id-based edge sharding.
	for _, a := range authors {
		for i := 0; i < 3; i++ {
			g.MustAddEdge(a, books[i], "favoriteBook")
		}
	}
	// DS3: books 0 and 1 each gain three incoming @uniqueForTarget
	// "contains" edges from distinct series, again interleaved.
	var series []pg.NodeID
	for i := 0; i < 3; i++ {
		series = append(series, g.AddNode("BookSeries"))
	}
	for _, s := range series {
		g.MustAddEdge(s, books[0], "contains")
		g.MustAddEdge(s, books[1], "contains")
	}
	return g
}

// TestNaivePairScanDuplicateWitnesses checks that the naive pair scans
// report each violation once however many edge pairs witness it: per
// rule they must match the fused engine, including its parallel range
// chunks, and the counts must be one per offending source or target.
func TestNaivePairScanDuplicateWitnesses(t *testing.T) {
	s := build(t, bookSchema)
	g := pairScanGraph()

	naive := Validate(s, g, Options{NaivePairScan: true})
	fused := Validate(s, g, Options{Workers: 4})
	nf, nn := fused.ByRule(), naive.ByRule()
	for _, rule := range []Rule{WS4, DS1, DS3} {
		if len(nf[rule]) != len(nn[rule]) {
			t.Errorf("rule %s: fused %d vs naive %d\nfused: %v\nnaive: %v",
				rule, len(nf[rule]), len(nn[rule]), nf[rule], nn[rule])
		}
		for i := range nn[rule] {
			if i < len(nf[rule]) && nf[rule][i] != nn[rule][i] {
				t.Errorf("rule %s: violation %d differs:\nfused: %v\nnaive: %v", rule, i, nf[rule][i], nn[rule][i])
			}
		}
	}
	if len(nn[WS4]) != 4 {
		t.Errorf("expected one WS4 violation per author, got %d: %v", len(nn[WS4]), nn[WS4])
	}
	if len(nn[DS3]) != 2 {
		t.Errorf("expected one DS3 violation per over-contained book, got %d: %v", len(nn[DS3]), nn[DS3])
	}
}

// TestParallelRuleTimings covers CollectTimings in a parallel fused run:
// every requested rule gets a RuleTime entry, summed across workers.
func TestParallelRuleTimings(t *testing.T) {
	s := build(t, bookSchema)
	g := pairScanGraph()
	res := Validate(s, g, Options{Workers: 4, CollectTimings: true})
	if res.RuleTime == nil {
		t.Fatal("RuleTime is nil with CollectTimings set")
	}
	if len(res.RuleTime) != len(AllRules) {
		t.Errorf("timings for %d rules, want %d: %v", len(res.RuleTime), len(AllRules), res.RuleTime)
	}
	var total time.Duration
	for _, d := range res.RuleTime {
		if d < 0 {
			t.Errorf("negative duration in %v", res.RuleTime)
		}
		total += d
	}
	if total <= 0 {
		t.Error("all rule durations are zero")
	}
}

// TestTruncatedExactSequential pins the repaired Truncated contract: in
// sequential mode the flag is true iff violations beyond the cap exist —
// including when the cap fills exactly at a rule boundary and only a
// later rule holds the overflow.
func TestTruncatedExactSequential(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "login") // one DS5 violation
	g.AddNode("Ghost")           // one SS1 violation, checked after DS5

	full := Validate(s, g, Options{})
	if len(full.Violations) != 2 || full.Truncated {
		t.Fatalf("setup: want exactly 2 violations untruncated, got %v (truncated=%v)",
			full.Violations, full.Truncated)
	}

	// Cap fills at the DS5/SS1 rule boundary; the SS1 violation must
	// still flip Truncated.
	capped := Validate(s, g, Options{MaxViolations: 1})
	if len(capped.Violations) != 1 || !capped.Truncated {
		t.Errorf("max=1: got %d violations, truncated=%v; want 1, true",
			len(capped.Violations), capped.Truncated)
	}

	// Cap equal to the exact violation count must not report truncation.
	exact := Validate(s, g, Options{MaxViolations: 2})
	if len(exact.Violations) != 2 || exact.Truncated {
		t.Errorf("max=2: got %d violations, truncated=%v; want 2, false",
			len(exact.Violations), exact.Truncated)
	}
}
