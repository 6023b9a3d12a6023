package validate_test

// The differential harness proves the engine-equivalence claim the
// fused engine rests on: for a matrix of generated schemas, conformant
// graphs, and per-rule injected faults, every engine configuration —
// the sequential rule-by-rule baseline, the fused engine sequential and
// parallel, with and without a precompiled program, and the naive
// pair-scan ablation — must emit the byte-identical
// canonically-sorted violation set under all three satisfaction modes.

import (
	"fmt"
	"strings"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// diffSchema is a directive-complete schema: every one of the fifteen
// rules is injectable against it (gen.Inject never errors), which the
// injector coverage test in internal/gen pins separately.
const diffSchema = `
type Author @key(fields: ["name"]) {
	name: String! @required
	age: Int
	favoriteBook: Book
	relatedAuthor: [Author] @distinct @noLoops
}
type Book {
	title: String! @required
	pages: Int
	author(since: Int!, role: String): [Author] @required @distinct
}
type BookSeries {
	contains: [Book] @required @uniqueForTarget
}
type Publisher {
	published: [Book] @uniqueForTarget @requiredForTarget
}`

// engineConfigs is the configuration matrix every run is checked
// across. The first entry is the baseline the others must match.
// Configs with compiled set receive a Program compiled once per
// assertEngineEquivalence call and shared across modes, exercising the
// cross-run binding cache as well as the compiled passes.
var engineConfigs = []struct {
	name     string
	compiled bool
	set      func(*validate.Options)
}{
	{"seq/rule-by-rule", false, func(o *validate.Options) { o.Engine = validate.EngineRuleByRule }},
	{"seq/fused", false, func(o *validate.Options) { o.Engine = validate.EngineFused }},
	{"par4/fused", false, func(o *validate.Options) { o.Engine = validate.EngineFused; o.Workers = 4 }},
	{"seq/naive-pair-scan", false, func(o *validate.Options) { o.Engine = validate.EngineRuleByRule; o.NaivePairScan = true }},
	{"seq/fused+program", true, func(o *validate.Options) { o.Engine = validate.EngineFused }},
	{"par4/fused+program", true, func(o *validate.Options) { o.Engine = validate.EngineFused; o.Workers = 4 }},
}

var diffModes = []struct {
	name string
	mode validate.Mode
}{
	{"strong", validate.Strong},
	{"weak", validate.Weak},
	{"directives", validate.Directives},
}

// renderViolations serializes a result canonically: Validate already
// sorts the violations, so a field-for-field dump is a canonical form
// and equality of the rendered strings is byte-identity of the sets.
func renderViolations(res *validate.Result) string {
	var b strings.Builder
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "%s|%d|%d|%s|%s|%s|%s\n",
			v.Rule, v.Node, v.Edge, v.TypeName, v.Field, v.Property, v.Message)
	}
	return b.String()
}

// assertEngineEquivalence validates the graph under every engine
// configuration and mode, and fails on the first divergence from the
// sequential rule-by-rule baseline.
func assertEngineEquivalence(t *testing.T, s *schema.Schema, g *pg.Graph, label string) {
	t.Helper()
	prog := validate.Compile(s)
	for _, m := range diffModes {
		var baseline string
		for i, cfg := range engineConfigs {
			opts := validate.Options{Mode: m.mode}
			cfg.set(&opts)
			if cfg.compiled {
				opts.Program = prog
			}
			got := renderViolations(validate.Validate(s, g, opts))
			if i == 0 {
				baseline = got
				continue
			}
			if got != baseline {
				t.Errorf("%s: mode %s: engine %s diverges from %s:\n--- baseline ---\n%s--- got ---\n%s",
					label, m.name, cfg.name, engineConfigs[0].name, baseline, got)
			}
		}
	}
}

func buildDiff(t *testing.T, src string) *schema.Schema {
	t.Helper()
	doc, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := schema.Build(doc, schema.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// TestDifferentialInjectedFaults runs the core matrix: 20 seeds × the
// 15 rules × the engine configurations × the three modes, over the
// directive-complete schema. For every (seed, rule) pair a conformant
// graph is generated, the rule's fault is injected, and all engines
// must agree; the clean graph must also validate clean everywhere.
func TestDifferentialInjectedFaults(t *testing.T) {
	s := buildDiff(t, diffSchema)
	const seeds = 20
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 6})
			if err != nil {
				t.Fatalf("conformant: %v", err)
			}
			assertEngineEquivalence(t, s, base, "clean graph")
			for _, m := range diffModes {
				opts := validate.Options{Mode: m.mode}
				if res := validate.Validate(s, base, opts); !res.OK() {
					t.Fatalf("clean graph invalid under %s: %v", m.name, res.Violations)
				}
			}
			for _, rule := range validate.AllRules {
				g := base.Clone()
				desc, err := gen.Inject(s, g, rule, seed)
				if err != nil {
					t.Fatalf("inject %s: %v", rule, err)
				}
				label := fmt.Sprintf("inject %s (%s)", rule, desc)
				// The targeted rule must actually fire in strong mode.
				strong := validate.Validate(s, g, validate.Options{})
				if len(strong.ByRule()[rule]) == 0 {
					t.Errorf("%s: targeted rule not reported; got %v", label, strong.Violations)
				}
				assertEngineEquivalence(t, s, g, label)
			}
		})
	}
}

// TestDifferentialRandomSchemas widens the matrix with generated
// schemas: random type graphs, unions, wrapped types, and random
// directive placement. Rules the particular schema offers no
// opportunity to violate are skipped (gen.Inject reports them); every
// injectable fault must keep the engines in agreement.
func TestDifferentialRandomSchemas(t *testing.T) {
	injected := 0
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schema=%d", seed), func(t *testing.T) {
			s, src, err := gen.RandomSchema(gen.SchemaConfig{Seed: seed, Unions: seed%2 == 0})
			if err != nil {
				t.Fatalf("random schema: %v", err)
			}
			base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 8})
			if err != nil {
				t.Fatalf("conformant for schema:\n%s\nerror: %v", src, err)
			}
			assertEngineEquivalence(t, s, base, "clean graph")
			for _, rule := range validate.AllRules {
				g := base.Clone()
				desc, err := gen.Inject(s, g, rule, seed)
				if err != nil {
					continue // schema offers no way to violate this rule
				}
				injected++
				assertEngineEquivalence(t, s, g, fmt.Sprintf("inject %s (%s)", rule, desc))
			}
		})
	}
	if injected == 0 {
		t.Error("random-schema sweep injected no faults at all")
	}
}
