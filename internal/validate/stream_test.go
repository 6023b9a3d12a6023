package validate_test

// Differential coverage for validate-on-ingest: for randomized schemas,
// graphs, and injected faults, streaming a graph out of CSV and
// validating it in the same materialization must emit the byte-identical
// violation set as the two-phase ReadCSV-then-Validate path, under every
// mode and representative engine configurations.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"pgschema/internal/gen"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
)

// graphCSV renders a graph to the two-file CSV layout both loaders read.
func graphCSV(t *testing.T, g *pg.Graph) (nodes, edges string) {
	t.Helper()
	var nb, eb bytes.Buffer
	if err := g.WriteCSV(&nb, &eb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return nb.String(), eb.String()
}

// assertStreamEquivalence checks that ValidateStream over the CSV form
// of g matches ReadCSV-then-Validate byte-for-byte across modes and
// engine shapes.
func assertStreamEquivalence(t *testing.T, s *schema.Schema, g *pg.Graph, label string) {
	t.Helper()
	nodes, edges := graphCSV(t, g)
	prog := validate.Compile(s)

	configs := []struct {
		name string
		set  func(*validate.Options)
	}{
		{"seq", func(o *validate.Options) {}},
		{"par4", func(o *validate.Options) { o.Workers = 4 }},
		{"precompiled", func(o *validate.Options) { o.Program = prog }},
	}
	for _, m := range diffModes {
		for _, cfg := range configs {
			opts := validate.Options{Mode: m.mode}
			cfg.set(&opts)

			twoPhase, err := pg.ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
			if err != nil {
				t.Fatalf("%s: ReadCSV: %v", label, err)
			}
			want := renderViolations(validate.Validate(s, twoPhase, opts))

			res, sg, err := validate.ValidateStream(context.Background(), s,
				strings.NewReader(nodes), strings.NewReader(edges), opts)
			if err != nil {
				t.Fatalf("%s: ValidateStream: %v", label, err)
			}
			if sg == nil || sg.NumNodes() != twoPhase.NumNodes() || sg.NumEdges() != twoPhase.NumEdges() {
				t.Fatalf("%s: streamed graph shape differs", label)
			}
			if got := renderViolations(res); got != want {
				t.Errorf("%s: mode %s, cfg %s: streamed violations diverge:\n--- two-phase ---\n%s--- streamed ---\n%s",
					label, m.name, cfg.name, want, got)
			}
		}
	}
}

// TestDifferentialStreamIngest is the randomized streaming differential:
// seeds × injected faults over the directive-complete schema, plus
// random schemas, all asserting two-phase/streamed byte-identity.
func TestDifferentialStreamIngest(t *testing.T) {
	s := buildDiff(t, diffSchema)
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 6})
			if err != nil {
				t.Fatalf("conformant: %v", err)
			}
			assertStreamEquivalence(t, s, base, "clean graph")
			for _, rule := range validate.AllRules {
				g := base.Clone()
				desc, err := gen.Inject(s, g, rule, seed)
				if err != nil {
					t.Fatalf("inject %s: %v", rule, err)
				}
				assertStreamEquivalence(t, s, g, fmt.Sprintf("inject %s (%s)", rule, desc))
			}
		})
	}

	t.Run("random schemas", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			s, src, err := gen.RandomSchema(gen.SchemaConfig{Seed: seed, Unions: seed%2 == 0})
			if err != nil {
				t.Fatalf("random schema: %v", err)
			}
			base, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: 8})
			if err != nil {
				t.Fatalf("conformant for schema:\n%s\nerror: %v", src, err)
			}
			assertStreamEquivalence(t, s, base, fmt.Sprintf("random schema %d", seed))
			for _, rule := range validate.AllRules {
				g := base.Clone()
				if _, err := gen.Inject(s, g, rule, seed); err != nil {
					continue // schema offers no way to violate this rule
				}
				assertStreamEquivalence(t, s, g, fmt.Sprintf("random schema %d inject %s", seed, rule))
			}
		}
	})
}

// TestStreamValidateSmoke is the make-check streaming smoke case: a
// mid-size generated graph streamed from CSV and validated on ingest,
// in one pass, with violations matching the two-phase result.
func TestStreamValidateSmoke(t *testing.T) {
	s := buildDiff(t, diffSchema)
	base, err := gen.Conformant(s, gen.Config{Seed: 42, NodesPerType: 400})
	if err != nil {
		t.Fatalf("conformant: %v", err)
	}
	if _, err := gen.Inject(s, base, validate.AllRules[0], 42); err != nil {
		t.Fatalf("inject: %v", err)
	}
	nodes, edges := graphCSV(t, base)

	res, g, err := validate.ValidateStream(context.Background(), s,
		strings.NewReader(nodes), strings.NewReader(edges),
		validate.Options{Workers: 4})
	if err != nil {
		t.Fatalf("ValidateStream: %v", err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("smoke graph came back empty")
	}
	if res.OK() {
		t.Fatal("injected fault not reported by streaming validation")
	}

	twoPhase, err := pg.ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	want := renderViolations(validate.Validate(s, twoPhase, validate.Options{Workers: 4}))
	if got := renderViolations(res); got != want {
		t.Fatalf("streamed smoke violations diverge:\n--- two-phase ---\n%s--- streamed ---\n%s", want, got)
	}
}

// TestValidateStreamLoadError pins that loader diagnostics surface
// through ValidateStream unchanged, with no result and no graph.
func TestValidateStreamLoadError(t *testing.T) {
	s := buildDiff(t, diffSchema)
	res, g, err := validate.ValidateStream(context.Background(), s,
		strings.NewReader("id,label\nu0,Author\nu0,Author\n"),
		strings.NewReader("source,target,label\n"), validate.Options{})
	if res != nil || g != nil {
		t.Fatal("load error must not produce a result or graph")
	}
	want := `pg: node CSV line 3: duplicate node id "u0"`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

// TestValidateStreamCancel pins context propagation through the fused
// load+validate path.
func TestValidateStreamCancel(t *testing.T) {
	s := buildDiff(t, diffSchema)
	base, err := gen.Conformant(s, gen.Config{Seed: 7, NodesPerType: 50})
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges := graphCSV(t, base)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := validate.ValidateStream(ctx, s,
		strings.NewReader(nodes), strings.NewReader(edges), validate.Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
