package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"pgschema/internal/gen"
	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/validate"
	"pgschema/internal/values"
)

// benchSDL is the schema of the repository's scale benchmarks: every
// directive of the paper appears, and Author carries the @key that the
// generated API turns into the author(name:) lookup.
const benchSDL = `
type Author @key(fields: ["name"]) {
	name: String! @required
	favoriteBook: Book
	relatedAuthor: [Author] @distinct @noLoops
}
type Book {
	title: String! @required
	pages: Int
	tags: [String!]
	author(role: String): [Author] @required @distinct
}
type BookSeries {
	contains: [Book] @required @uniqueForTarget
}
type Publisher {
	published: [Book] @uniqueForTarget @requiredForTarget
}`

// injectRules are the rules whose violations validate_full plants:
// none of their injections removes a node, so CSV row order stays the
// node ID order on both sides.
var injectRules = []validate.Rule{
	validate.WS1, validate.WS3, validate.DS1, validate.DS2,
	validate.DS3, validate.DS5, validate.DS7, validate.SS2,
}

// violationKey is one violation as both the library and the /validate
// response render it; the reference set is a sorted list of these.
type violationKey struct {
	Rule     string `json:"rule"`
	Message  string `json:"message"`
	Node     int64  `json:"node"`
	Edge     int64  `json:"edge"`
	TypeName string `json:"typeName,omitempty"`
	Field    string `json:"field,omitempty"`
	Property string `json:"property,omitempty"`
}

func sortKeys(vs []violationKey) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
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
}

// inputMeta is everything the clients and checks need to know about the
// generated graph. It is written next to the CSV pair by the generator
// process; the server never sees it.
type inputMeta struct {
	Nodes, Edges int
	Authors      int // Author nodes: the row count of allAuthors
	// Names are author names safe to look up: unique, and on a node no
	// violation touches, so every lookup has exactly one answer.
	Names []string
	// AuthorIDs and BookIDs are node IDs writes may touch without
	// changing the reference violation set.
	AuthorIDs []int64
	BookIDs   []int64
	// Reference is the full strong violation set, computed by the
	// rule-by-rule engine over a two-phase CSV load.
	Reference []violationKey
}

// generateInputs builds the seeded graph for a workload, writes it as
// nodes.csv/edges.csv into dir, and writes meta.json. It runs in a
// child process so that its memory never shows in the server's peak RSS.
func generateInputs(w workload, seed int64, dir string) error {
	s, err := buildSchema()
	if err != nil {
		return err
	}
	g, err := gen.Conformant(s, gen.Config{Seed: seed, NodesPerType: w.nodesPerType})
	if err != nil {
		return fmt.Errorf("generating graph: %w", err)
	}
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < w.violations; i++ {
		rule := injectRules[i%len(injectRules)]
		if _, err := gen.Inject(s, g, rule, rnd.Int63()); err != nil {
			return fmt.Errorf("injecting %s: %w", rule, err)
		}
	}
	nodesPath, edgesPath := filepath.Join(dir, "nodes.csv"), filepath.Join(dir, "edges.csv")
	if err := writeCSV(g, nodesPath, edgesPath); err != nil {
		return err
	}

	// The reference and the key pools come from the files, loaded by the
	// two-phase reader, so they describe exactly what the server ingests.
	nf, err := os.Open(nodesPath)
	if err != nil {
		return err
	}
	defer nf.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return err
	}
	defer ef.Close()
	loaded, err := pg.ReadCSV(bufio.NewReader(nf), bufio.NewReader(ef))
	if err != nil {
		return fmt.Errorf("reloading generated CSV: %w", err)
	}
	res := validate.Validate(s, loaded, validate.Options{Engine: validate.EngineRuleByRule})
	meta := inputMeta{Nodes: loaded.NumNodes(), Edges: loaded.NumEdges()}
	tainted := map[pg.NodeID]bool{}
	for _, v := range res.Violations {
		meta.Reference = append(meta.Reference, violationKey{
			Rule: string(v.Rule), Message: v.Message, Node: int64(v.Node), Edge: int64(v.Edge),
			TypeName: v.TypeName, Field: v.Field, Property: v.Property,
		})
		tainted[v.Node] = true
		if v.Edge >= 0 {
			src, dst := loaded.Endpoints(v.Edge)
			tainted[src], tainted[dst] = true, true
		}
	}
	sortKeys(meta.Reference)

	nameCount := map[string]int{}
	authors := loaded.NodesLabeled("Author")
	meta.Authors = len(authors)
	for _, id := range authors {
		if v, ok := loaded.NodeProp(id, "name"); ok {
			nameCount[v.String()]++
		}
	}
	for _, id := range authors {
		v, ok := loaded.NodeProp(id, "name")
		if tainted[id] || !ok || nameCount[v.String()] != 1 || v.Kind() != values.KindString {
			continue
		}
		meta.Names = append(meta.Names, v.AsString())
		meta.AuthorIDs = append(meta.AuthorIDs, int64(id))
	}
	for _, id := range loaded.NodesLabeled("Book") {
		if !tainted[id] {
			meta.BookIDs = append(meta.BookIDs, int64(id))
		}
	}
	if len(meta.Names) < maxHotKeys+1000 || len(meta.BookIDs) < 100 {
		return fmt.Errorf("generated graph too small: %d lookup keys, %d books", len(meta.Names), len(meta.BookIDs))
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), data, 0o644)
}

func buildSchema() (*schema.Schema, error) {
	doc, err := parser.Parse(benchSDL)
	if err != nil {
		return nil, fmt.Errorf("parsing schema: %w", err)
	}
	return schema.Build(doc, schema.Options{})
}

func writeCSV(g *pg.Graph, nodesPath, edgesPath string) error {
	nf, err := os.Create(nodesPath)
	if err != nil {
		return err
	}
	defer nf.Close()
	ef, err := os.Create(edgesPath)
	if err != nil {
		return err
	}
	defer ef.Close()
	nw, ew := bufio.NewWriter(nf), bufio.NewWriter(ef)
	if err := g.WriteCSV(nw, ew); err != nil {
		return fmt.Errorf("writing CSV: %w", err)
	}
	if err := nw.Flush(); err != nil {
		return err
	}
	if err := ew.Flush(); err != nil {
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	return ef.Close()
}

func readMeta(dir string) (*inputMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var m inputMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("reading input metadata: %w", err)
	}
	return &m, nil
}
