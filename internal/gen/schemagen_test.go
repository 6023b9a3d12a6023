package gen

import (
	"bytes"
	"testing"

	"pgschema/internal/pg"
	"pgschema/internal/validate"
)

// TestRandomSchemasGeneratable: every random schema builds, and the
// conformant generator produces a strongly satisfying graph for it.
func TestRandomSchemasGeneratable(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		s, src, err := RandomSchema(SchemaConfig{Seed: seed, Unions: seed%2 == 0})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		g, err := Conformant(s, Config{Seed: seed, NodesPerType: 12})
		if err != nil {
			t.Fatalf("seed %d: generate: %v\n%s", seed, err, src)
		}
		res := validate.Validate(s, g, validate.Options{})
		if !res.OK() {
			t.Fatalf("seed %d: %d violations, first: %v\nschema:\n%s",
				seed, len(res.Violations), res.Violations[0], src)
		}
	}
}

// TestRandomSchemasParallelAgreement: on random schemas with injected
// violations, the parallel validator returns exactly the sequential
// validator's verdicts.
func TestRandomSchemasParallelAgreement(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s, src, err := RandomSchema(SchemaConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := Conformant(s, Config{Seed: seed, NodesPerType: 10})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Inject a few violations (whichever apply to this schema).
		for _, rule := range []validate.Rule{validate.SS1, validate.SS2, validate.WS4, validate.DS5} {
			_, _ = Inject(s, g, rule, seed)
		}
		seq := validate.Validate(s, g, validate.Options{})
		par := validate.Validate(s, g, validate.Options{Workers: 4})
		if len(seq.Violations) != len(par.Violations) {
			t.Fatalf("seed %d: sequential %d vs parallel %d violations\n%s",
				seed, len(seq.Violations), len(par.Violations), src)
		}
		for i := range seq.Violations {
			if seq.Violations[i] != par.Violations[i] {
				t.Fatalf("seed %d: violation %d differs", seed, i)
			}
		}
	}
}

// TestRandomSchemasJSONRoundTrip: serializing and reloading a generated
// graph preserves the validation outcome exactly.
func TestRandomSchemasJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s, _, err := RandomSchema(SchemaConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := Conformant(s, Config{Seed: seed, NodesPerType: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, _ = Inject(s, g, validate.SS2, seed) // some violations survive the trip
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := pg.ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		before := validate.Validate(s, g, validate.Options{})
		after := validate.Validate(s, back, validate.Options{})
		if len(before.Violations) != len(after.Violations) {
			t.Fatalf("seed %d: %d violations before, %d after round trip",
				seed, len(before.Violations), len(after.Violations))
		}
	}
}

// TestRandomSchemasDeterministic: the same seed yields the same SDL text.
func TestRandomSchemasDeterministic(t *testing.T) {
	_, src1, err := RandomSchema(SchemaConfig{Seed: 11, Unions: true})
	if err != nil {
		t.Fatal(err)
	}
	_, src2, err := RandomSchema(SchemaConfig{Seed: 11, Unions: true})
	if err != nil {
		t.Fatal(err)
	}
	if src1 != src2 {
		t.Error("same seed produced different schemas")
	}
	_, src3, err := RandomSchema(SchemaConfig{Seed: 12, Unions: true})
	if err != nil {
		t.Fatal(err)
	}
	if src1 == src3 {
		t.Error("different seeds produced identical schemas")
	}
}
