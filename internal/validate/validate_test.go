package validate

import (
	"testing"

	"pgschema/internal/parser"
	"pgschema/internal/pg"
	"pgschema/internal/schema"
	"pgschema/internal/values"
)

func build(t *testing.T, src string) *schema.Schema {
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

// check validates and asserts the exact multiset of violated rules.
func check(t *testing.T, s *schema.Schema, g *pg.Graph, opts Options, want ...Rule) *Result {
	t.Helper()
	res := Validate(s, g, opts)
	counts := make(map[Rule]int)
	for _, v := range res.Violations {
		counts[v.Rule]++
	}
	wantCounts := make(map[Rule]int)
	for _, r := range want {
		wantCounts[r]++
	}
	for r, n := range wantCounts {
		if counts[r] != n {
			t.Errorf("rule %s: got %d violations, want %d\nall: %v", r, counts[r], n, res.Violations)
		}
	}
	for r, n := range counts {
		if wantCounts[r] == 0 {
			t.Errorf("unexpected %s violations (%d)\nall: %v", r, n, res.Violations)
		}
	}
	return res
}

const sessionSchema = `
type UserSession {
	id: ID! @required
	user: User! @required
	startTime: Time! @required
	endTime: Time!
}
type User {
	id: ID! @required
	login: String! @required
	nicknames: [String!]!
}
scalar Time`

// sessionGraph builds the conformant graph described in Examples 3.3/3.5.
func sessionGraph() *pg.Graph {
	g := pg.New()
	u := g.AddNode("User")
	g.SetNodeProp(u, "id", values.ID("u1"))
	g.SetNodeProp(u, "login", values.String("ada"))
	g.SetNodeProp(u, "nicknames", values.List(values.String("lovelace")))
	s := g.AddNode("UserSession")
	g.SetNodeProp(s, "id", values.ID("s1"))
	g.SetNodeProp(s, "startTime", values.String("2019-06-30T09:00:00Z"))
	g.MustAddEdge(s, u, "user")
	return g
}

func TestConformantGraph(t *testing.T) {
	s := build(t, sessionSchema)
	res := check(t, s, sessionGraph(), Options{})
	if !res.OK() {
		t.Errorf("expected OK, got %v", res.Violations)
	}
}

func TestEmptyGraphStronglySatisfies(t *testing.T) {
	// The empty Property Graph strongly satisfies any consistent schema
	// in which no @requiredForTarget forces population (vacuously).
	s := build(t, sessionSchema)
	check(t, s, pg.New(), Options{})
}

func TestWS1PropertyWrongType(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "login", values.Int(42)) // login: String!
	check(t, s, g, Options{}, WS1)
}

func TestWS1NullForNonNull(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "login", values.Null) // String! excludes null
	check(t, s, g, Options{}, WS1)
}

func TestWS1ListElementWrongType(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "nicknames", values.List(values.String("ok"), values.Int(3)))
	check(t, s, g, Options{}, WS1)
}

func TestWS1ListWithNullElement(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "nicknames", values.List(values.Null)) // [String!]!
	check(t, s, g, Options{}, WS1)
}

func TestWS1CustomScalarAcceptsAnything(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	g.SetNodeProp(sess, "endTime", values.Int(1561900000))
	check(t, s, g, Options{})
}

const edgePropSchema = `
type UserSession {
	user(certainty: Float! comment: String): User! @required
}
type User { id: ID! }`

func TestWS2EdgeProperties(t *testing.T) {
	// Example 3.12: certainty is mandatory (checked by WS2 only when
	// present — absence is not a WS2 violation since valuesW is only
	// checked for properties in dom(σ)).
	s := build(t, edgePropSchema)
	g := pg.New()
	u := g.AddNode("User")
	sess := g.AddNode("UserSession")
	e := g.MustAddEdge(sess, u, "user")
	g.SetEdgeProp(e, "certainty", values.Float(0.9))
	g.SetEdgeProp(e, "comment", values.String("fine"))
	check(t, s, g, Options{})

	g.SetEdgeProp(e, "certainty", values.String("high"))
	check(t, s, g, Options{}, WS2)
}

func TestWS2NullForNonNullArg(t *testing.T) {
	s := build(t, edgePropSchema)
	g := pg.New()
	u := g.AddNode("User")
	sess := g.AddNode("UserSession")
	e := g.MustAddEdge(sess, u, "user")
	g.SetEdgeProp(e, "certainty", values.Null)
	check(t, s, g, Options{}, WS2)
}

func TestWS3WrongTargetType(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	other := g.AddNode("UserSession")
	g.SetNodeProp(other, "id", values.ID("s2"))
	g.SetNodeProp(other, "startTime", values.String("t"))
	g.MustAddEdge(other, sess, "user") // user must point at a User
	check(t, s, g, Options{}, WS3)
}

func TestWS3InterfaceTarget(t *testing.T) {
	// Example 3.10: favoriteFood points at the interface Food; Pizza and
	// Pasta nodes are fine, Person nodes are not.
	s := build(t, `
		type Person { name: String! favoriteFood: Food }
		interface Food { name: String! }
		type Pizza implements Food { name: String! toppings: [String!]! }
		type Pasta implements Food { name: String! }`)
	g := pg.New()
	p := g.AddNode("Person")
	g.SetNodeProp(p, "name", values.String("olaf"))
	pizza := g.AddNode("Pizza")
	g.SetNodeProp(pizza, "name", values.String("margherita"))
	g.SetNodeProp(pizza, "toppings", values.List(values.String("basil")))
	g.MustAddEdge(p, pizza, "favoriteFood")
	check(t, s, g, Options{})

	p2 := g.AddNode("Person")
	g.SetNodeProp(p2, "name", values.String("jan"))
	g.MustAddEdge(p2, p, "favoriteFood") // Person is not ⊑ Food
	check(t, s, g, Options{}, WS3)
}

func TestWS3UnionTarget(t *testing.T) {
	// Example 3.9: the union variant must behave identically.
	s := build(t, `
		type Person { name: String! favoriteFood: Food }
		union Food = Pizza | Pasta
		type Pizza { name: String! toppings: [String!]! }
		type Pasta { name: String! }`)
	g := pg.New()
	p := g.AddNode("Person")
	g.SetNodeProp(p, "name", values.String("olaf"))
	pasta := g.AddNode("Pasta")
	g.SetNodeProp(pasta, "name", values.String("carbonara"))
	g.MustAddEdge(p, pasta, "favoriteFood")
	check(t, s, g, Options{})

	p2 := g.AddNode("Person")
	g.SetNodeProp(p2, "name", values.String("jan"))
	g.MustAddEdge(p2, p, "favoriteFood")
	check(t, s, g, Options{}, WS3)
}

func TestWS4MultipleEdgesOnNonListField(t *testing.T) {
	// Example 3.5: a UserSession must have exactly one user edge.
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	u2 := g.AddNode("User")
	g.SetNodeProp(u2, "id", values.ID("u2"))
	g.SetNodeProp(u2, "login", values.String("bob"))
	g.MustAddEdge(sess, u2, "user")
	check(t, s, g, Options{}, WS4)
}

func TestWS4ListFieldAllowsMany(t *testing.T) {
	// Example 3.6: relatedAuthor: [Author] allows any number of edges.
	s := build(t, `
		type Author { favoriteBook: Book relatedAuthor: [Author] }
		type Book { title: String! author: [Author] @required }`)
	g := pg.New()
	a1, a2, a3 := g.AddNode("Author"), g.AddNode("Author"), g.AddNode("Author")
	g.MustAddEdge(a1, a2, "relatedAuthor")
	g.MustAddEdge(a1, a3, "relatedAuthor")
	check(t, s, g, Options{})

	// But favoriteBook (non-list) allows at most one.
	b1, b2 := g.AddNode("Book"), g.AddNode("Book")
	for _, b := range []pg.NodeID{b1, b2} {
		g.SetNodeProp(b, "title", values.String("t"))
		g.MustAddEdge(b, a1, "author")
	}
	g.MustAddEdge(a1, b1, "favoriteBook")
	g.MustAddEdge(a1, b2, "favoriteBook")
	check(t, s, g, Options{}, WS4)
}

const bookSchema = `
type Author {
	favoriteBook: Book
	relatedAuthor: [Author] @distinct @noLoops
}
type Book {
	title: String!
	author: [Author] @required @distinct
}
type BookSeries {
	contains: [Book] @required @uniqueForTarget
}
type Publisher {
	published: [Book] @uniqueForTarget @requiredForTarget
}`

// bookGraph builds a graph conforming to bookSchema.
func bookGraph() *pg.Graph {
	g := pg.New()
	a := g.AddNode("Author")
	b := g.AddNode("Book")
	g.SetNodeProp(b, "title", values.String("On Schemas"))
	g.MustAddEdge(b, a, "author")
	p := g.AddNode("Publisher")
	g.MustAddEdge(p, b, "published")
	return g
}

func TestBookGraphConformant(t *testing.T) {
	s := build(t, bookSchema)
	check(t, s, bookGraph(), Options{})
}

func TestDS1Distinct(t *testing.T) {
	// Example 3.7: two author edges to the same Author violate @distinct.
	s := build(t, bookSchema)
	g := bookGraph()
	b := g.NodesLabeled("Book")[0]
	a := g.NodesLabeled("Author")[0]
	g.MustAddEdge(b, a, "author")
	check(t, s, g, Options{}, DS1)
}

func TestDS1DistinctDifferentTargetsOK(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	b := g.NodesLabeled("Book")[0]
	a2 := g.AddNode("Author")
	g.MustAddEdge(b, a2, "author")
	check(t, s, g, Options{})
}

func TestDS2NoLoops(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	a := g.NodesLabeled("Author")[0]
	g.MustAddEdge(a, a, "relatedAuthor")
	check(t, s, g, Options{}, DS2)
}

func TestDS2NonLoopOK(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	a := g.NodesLabeled("Author")[0]
	a2 := g.AddNode("Author")
	g.MustAddEdge(a, a2, "relatedAuthor")
	g.MustAddEdge(a2, a, "relatedAuthor") // mutual, but no loop
	check(t, s, g, Options{})
}

func TestDS3UniqueForTarget(t *testing.T) {
	// Example 3.8: a Book may have at most one incoming contains edge.
	s := build(t, bookSchema)
	g := bookGraph()
	b := g.NodesLabeled("Book")[0]
	s1, s2 := g.AddNode("BookSeries"), g.AddNode("BookSeries")
	g.MustAddEdge(s1, b, "contains")
	g.MustAddEdge(s2, b, "contains")
	check(t, s, g, Options{}, DS3)
}

func TestDS3SingleIncomingOK(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	b := g.NodesLabeled("Book")[0]
	s1 := g.AddNode("BookSeries")
	g.MustAddEdge(s1, b, "contains")
	check(t, s, g, Options{})
}

func TestDS4RequiredForTarget(t *testing.T) {
	// Example 3.8: every Book must have exactly one incoming published
	// edge; a Book without one violates DS4.
	s := build(t, bookSchema)
	g := bookGraph()
	b2 := g.AddNode("Book")
	g.SetNodeProp(b2, "title", values.String("Orphan"))
	a := g.NodesLabeled("Author")[0]
	g.MustAddEdge(b2, a, "author")
	check(t, s, g, Options{}, DS4)
}

func TestDS5RequiredProperty(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "login")
	check(t, s, g, Options{}, DS5)
}

func TestDS5OptionalPropertyMayBeAbsent(t *testing.T) {
	// endTime has no @required; absence is fine (Example 3.3).
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	g.DeleteNodeProp(sess, "endTime")
	check(t, s, g, Options{})
}

func TestDS5RequiredListNonempty(t *testing.T) {
	s := build(t, `
		type User {
			tags: [String!] @required
		}`)
	g := pg.New()
	u := g.AddNode("User")
	g.SetNodeProp(u, "tags", values.List())
	check(t, s, g, Options{}, DS5)
	g.SetNodeProp(u, "tags", values.List(values.String("x")))
	check(t, s, g, Options{})
}

func TestDS6RequiredEdge(t *testing.T) {
	// Example 3.5/3.6: a Book without an author edge violates @required.
	s := build(t, bookSchema)
	g := bookGraph()
	b2 := g.AddNode("Book")
	g.SetNodeProp(b2, "title", values.String("No author"))
	p := g.NodesLabeled("Publisher")[0]
	g.MustAddEdge(p, b2, "published")
	check(t, s, g, Options{}, DS6)
}

const keySchema = `
type User @key(fields: ["id"]) {
	id: ID! @required
	login: String!
}`

func TestDS7KeyViolated(t *testing.T) {
	s := build(t, keySchema)
	g := pg.New()
	for _, id := range []string{"u1", "u1"} {
		u := g.AddNode("User")
		g.SetNodeProp(u, "id", values.ID(id))
	}
	check(t, s, g, Options{}, DS7)
}

func TestDS7KeySatisfied(t *testing.T) {
	s := build(t, keySchema)
	g := pg.New()
	for _, id := range []string{"u1", "u2"} {
		u := g.AddNode("User")
		g.SetNodeProp(u, "id", values.ID(id))
	}
	check(t, s, g, Options{})
}

func TestDS7BothAbsentConflicts(t *testing.T) {
	// DS7 case (i): two nodes both lacking the key property agree on it.
	s := build(t, keySchema)
	g := pg.New()
	g.AddNode("User")
	g.AddNode("User")
	// Missing @required id triggers DS5 too; both are correct.
	check(t, s, g, Options{}, DS7, DS5, DS5)
}

func TestDS7CompositeKey(t *testing.T) {
	s := build(t, `
		type Point @key(fields: ["x", "y"]) {
			x: Int @required
			y: Int @required
		}`)
	g := pg.New()
	add := func(x, y int64) {
		p := g.AddNode("Point")
		g.SetNodeProp(p, "x", values.Int(x))
		g.SetNodeProp(p, "y", values.Int(y))
	}
	add(1, 2)
	add(1, 3)
	add(2, 2)
	check(t, s, g, Options{})
	add(1, 2)
	check(t, s, g, Options{}, DS7)
}

func TestDS7MultipleKeys(t *testing.T) {
	// Example 3.4: both id and login are keys, independently.
	s := build(t, `
		type User @key(fields: ["id"]) @key(fields: ["login"]) {
			id: ID! @required
			login: String! @required
		}`)
	g := pg.New()
	add := func(id, login string) {
		u := g.AddNode("User")
		g.SetNodeProp(u, "id", values.ID(id))
		g.SetNodeProp(u, "login", values.String(login))
	}
	add("u1", "ada")
	add("u2", "bob")
	check(t, s, g, Options{})
	add("u3", "ada") // distinct id, duplicate login
	check(t, s, g, Options{}, DS7)
}

func TestSS1UnknownLabel(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	g.AddNode("Ghost")
	check(t, s, g, Options{}, SS1)
}

func TestSS1InterfaceLabelNotJustified(t *testing.T) {
	// SS1 demands λ(v) ∈ OT: interface and union labels are not node
	// types (§3.4: "we do not use these notions as types that can be
	// explicitly assigned to nodes").
	s := build(t, `
		interface Food { name: String! }
		type Pizza implements Food { name: String! }
		union Meal = Pizza`)
	g := pg.New()
	g.AddNode("Food")
	g.AddNode("Meal")
	n := g.AddNode("Pizza")
	g.SetNodeProp(n, "name", values.String("ok"))
	// Food/Meal nodes: SS1; their properties: none; fine.
	check(t, s, g, Options{}, SS1, SS1)
}

func TestSS1ScalarLabel(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	g.AddNode("Time") // scalar name is not an object type
	check(t, s, g, Options{}, SS1)
}

func TestSS2UndeclaredProperty(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "age", values.Int(36))
	check(t, s, g, Options{}, SS2)
}

func TestSS2PropertyNamedLikeRelationship(t *testing.T) {
	// A node property named like a relationship field is unjustified:
	// typeF(λ(v), f) ∉ S ∪ WS.
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	g.SetNodeProp(sess, "user", values.String("u1"))
	check(t, s, g, Options{}, SS2)
}

func TestSS3UndeclaredEdgeProperty(t *testing.T) {
	s := build(t, edgePropSchema)
	g := pg.New()
	u := g.AddNode("User")
	sess := g.AddNode("UserSession")
	e := g.MustAddEdge(sess, u, "user")
	g.SetEdgeProp(e, "certainty", values.Float(1))
	g.SetEdgeProp(e, "mood", values.String("good"))
	check(t, s, g, Options{}, SS3)
}

func TestSS4UndeclaredEdgeLabel(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	u := g.NodesLabeled("User")[0]
	g.MustAddEdge(u, sess, "attends")
	check(t, s, g, Options{}, SS4)
}

func TestSS4EdgeNamedLikeAttribute(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	sess := g.NodesLabeled("UserSession")[0]
	u := g.NodesLabeled("User")[0]
	g.MustAddEdge(sess, u, "startTime") // attribute name as edge label
	// WS3 also fires: (UserSession, startTime) ∈ dom(typeF), and the
	// target's label User is not ⊑ basetype(Time!) = Time.
	check(t, s, g, Options{}, SS4, WS3)
}

func TestWeakModeIgnoresUnjustified(t *testing.T) {
	// A graph with unknown labels weakly satisfies the schema (the WS
	// rules only constrain elements the schema mentions).
	s := build(t, sessionSchema)
	g := sessionGraph()
	g.AddNode("Ghost")
	res := Validate(s, g, Options{Mode: Weak})
	if !res.OK() {
		t.Errorf("weak mode: %v", res.Violations)
	}
}

func TestDirectivesMode(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "login")        // DS5
	g.SetNodeProp(u, "id", values.Null) // WS1, but not checked in Directives mode
	res := Validate(s, g, Options{Mode: Directives})
	if len(res.Violations) != 1 || res.Violations[0].Rule != DS5 {
		t.Errorf("directives mode: %v", res.Violations)
	}
}

func TestRuleSubset(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	g.AddNode("Ghost") // SS1
	u := g.NodesLabeled("User")[0]
	g.DeleteNodeProp(u, "login") // DS5
	res := Validate(s, g, Options{Rules: []Rule{SS1}})
	if len(res.Violations) != 1 || res.Violations[0].Rule != SS1 {
		t.Errorf("rule subset: %v", res.Violations)
	}
}

func TestMaxViolations(t *testing.T) {
	s := build(t, sessionSchema)
	g := pg.New()
	for i := 0; i < 100; i++ {
		g.AddNode("Ghost")
	}
	res := Validate(s, g, Options{MaxViolations: 5})
	if len(res.Violations) != 5 || !res.Truncated {
		t.Errorf("got %d violations, truncated=%v", len(res.Violations), res.Truncated)
	}
}

func TestDirectiveOnInterfaceField(t *testing.T) {
	// A directive declared on an interface field constrains all nodes
	// whose type implements the interface (λ(v) ⊑ t).
	s := build(t, `
		interface Named { name: String! @required }
		type City implements Named { name: String! }
		type Country implements Named { name: String! }`)
	g := pg.New()
	c := g.AddNode("City")
	g.SetNodeProp(c, "name", values.String("Linköping"))
	k := g.AddNode("Country") // missing name
	_ = k
	check(t, s, g, Options{}, DS5)
}

func TestParallelMatchesSequential(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	// Inject a mix of violations.
	b := g.NodesLabeled("Book")[0]
	a := g.NodesLabeled("Author")[0]
	g.MustAddEdge(b, a, "author")        // DS1
	g.MustAddEdge(a, a, "relatedAuthor") // DS2
	g.AddNode("Ghost")                   // SS1
	b2 := g.AddNode("Book")              // DS4 (no published), DS6 (no author), DS5 (no title)
	_ = b2

	seq := Validate(s, g, Options{})
	for _, workers := range []int{2, 4, 8} {
		par := Validate(s, g, Options{Workers: workers})
		if len(par.Violations) != len(seq.Violations) {
			t.Fatalf("workers=%d: %d violations, sequential %d\npar: %v\nseq: %v",
				workers, len(par.Violations), len(seq.Violations), par.Violations, seq.Violations)
		}
		for i := range seq.Violations {
			if par.Violations[i].Rule != seq.Violations[i].Rule || par.Violations[i].Message != seq.Violations[i].Message {
				t.Fatalf("workers=%d: violation %d differs:\npar: %v\nseq: %v",
					workers, i, par.Violations[i], seq.Violations[i])
			}
		}
	}
}

func TestNaivePairScanMatchesIndexed(t *testing.T) {
	s := build(t, bookSchema)
	g := bookGraph()
	b := g.NodesLabeled("Book")[0]
	a := g.NodesLabeled("Author")[0]
	g.MustAddEdge(b, a, "author") // DS1
	s1, s2 := g.AddNode("BookSeries"), g.AddNode("BookSeries")
	g.MustAddEdge(s1, b, "contains")
	g.MustAddEdge(s2, b, "contains") // DS3
	a2 := g.AddNode("Author")
	g.MustAddEdge(a2, b, "favoriteBook")
	b3 := g.AddNode("Book")
	g.SetNodeProp(b3, "title", values.String("x"))
	g.MustAddEdge(b3, a, "author")
	p := g.NodesLabeled("Publisher")[0]
	g.MustAddEdge(p, b3, "published")
	g.MustAddEdge(a2, b3, "favoriteBook") // WS4 (two favoriteBook edges)

	fast := Validate(s, g, Options{})
	slow := Validate(s, g, Options{NaivePairScan: true})
	fr, sr := fast.ByRule(), slow.ByRule()
	for _, rule := range []Rule{WS4, DS1, DS3} {
		if len(fr[rule]) != len(sr[rule]) {
			t.Errorf("rule %s: indexed %d vs naive %d", rule, len(fr[rule]), len(sr[rule]))
		}
	}
}

func TestRuleTimings(t *testing.T) {
	s := build(t, sessionSchema)
	res := Validate(s, sessionGraph(), Options{CollectTimings: true})
	if len(res.RuleTime) != len(AllRules) {
		t.Errorf("got timings for %d rules, want %d", len(res.RuleTime), len(AllRules))
	}
}

func TestViolationFields(t *testing.T) {
	s := build(t, sessionSchema)
	g := sessionGraph()
	u := g.NodesLabeled("User")[0]
	g.SetNodeProp(u, "login", values.Int(1))
	res := Validate(s, g, Options{})
	if len(res.Violations) != 1 {
		t.Fatalf("violations: %v", res.Violations)
	}
	v := res.Violations[0]
	if v.Rule != WS1 || v.Node != u || v.TypeName != "User" || v.Property != "login" {
		t.Errorf("violation metadata: %+v", v)
	}
	if v.String() == "" {
		t.Error("empty violation string")
	}
}
