package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"pgschema/internal/pg"
	"pgschema/internal/values"
)

// opKind is an operation class. Latencies, spans and checks are kept
// per class.
type opKind int

const (
	opLookup   opKind = iota // author(name:) on one of the hot keys: a plan-cache hit
	opMiss                   // author(name:) on a key never asked before: parse, compile, bind
	opScan                   // { allAuthors { name } }: encode-bound
	opWrite                  // /graph/apply with revalidate, persisted with fsync
	opValidate               // full strong /validate
	numKinds
)

var kindNames = [numKinds]string{"lookup", "miss", "scan", "write", "validate"}

// maxHotKeys is the largest number of Zipf-distributed lookup keys a
// workload uses: half the server's 256-entry plan cache, so the hot
// plans stay cached while the fresh keys churn the other half.
const maxHotKeys = 128

const lookupFields = `name favoriteBook { title pages } relatedAuthor { name }`

func lookupQuery(name string) string {
	return `{ author(name: ` + strconv.Quote(name) + `) { ` + lookupFields + ` } }`
}

const scanQuery = `{ allAuthors { name } }`

// mix is the share of each operation class in a client's stream.
type mix [numKinds]float64

// writeSpec is one seeded /graph/apply delta: pages set on 1-8 books
// and, in one write in five, an Author with a fresh name plus a
// relatedAuthor edge to an existing author.
type writeSpec struct {
	pages  []pageSet
	author string
	relTo  int64
}

type pageSet struct{ node, value int64 }

func (w *writeSpec) body() []byte {
	type nodeProp struct {
		Node  int64  `json:"node"`
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	type addNode struct {
		Label string            `json:"label"`
		Props map[string]string `json:"props"`
	}
	type addEdge struct {
		Src   int64  `json:"src"`
		Dst   int64  `json:"dst"`
		Label string `json:"label"`
	}
	req := struct {
		APIVersion   string     `json:"apiVersion"`
		AddNodes     []addNode  `json:"addNodes,omitempty"`
		AddEdges     []addEdge  `json:"addEdges,omitempty"`
		SetNodeProps []nodeProp `json:"setNodeProps"`
		Revalidate   bool       `json:"revalidate"`
	}{APIVersion: "v1", Revalidate: true}
	for _, p := range w.pages {
		req.SetNodeProps = append(req.SetNodeProps, nodeProp{p.node, "pages", p.value})
	}
	if w.author != "" {
		req.AddNodes = []addNode{{"Author", map[string]string{"name": w.author}}}
		req.AddEdges = []addEdge{{-1, w.relTo, "relatedAuthor"}}
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // fixed shapes of ints and strings always marshal
	}
	return data
}

// delta is the library form of body(), for the traced run's replica.
func (w *writeSpec) delta() pg.Delta {
	var d pg.Delta
	for _, p := range w.pages {
		d.SetNodeProps = append(d.SetNodeProps, pg.NodePropSpec{Node: pg.NodeID(p.node), Name: "pages", Value: values.Int(p.value)})
	}
	if w.author != "" {
		d.AddNodes = []pg.AddNodeSpec{{Label: "Author", Props: []pg.PropEntry{{Name: "name", Value: values.String(w.author)}}}}
		d.AddEdges = []pg.AddEdgeSpec{{Src: pg.NewNodeRef(0), Dst: pg.NodeID(w.relTo), Label: "relatedAuthor"}}
	}
	return d
}

// op is one request of a client's stream.
type op struct {
	kind  opKind
	name  string // looked-up author
	query string // GraphQL source of reads
	path  string
	body  []byte
	write *writeSpec
}

// keyspace hands out lookup keys and write targets. It is shared by all
// clients of a run, so every fresh key is asked exactly once per run.
type keyspace struct {
	hot, fresh []string
	nextFresh  atomic.Int64
	books      []int64
	authors    []int64
	seed       int64
	nextAuthor atomic.Int64
}

func newKeyspace(m *inputMeta, hot int, seed int64) *keyspace {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	names := append([]string(nil), m.Names...)
	rnd.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return &keyspace{hot: names[:hot], fresh: names[hot:], books: m.BookIDs, authors: m.AuthorIDs, seed: seed}
}

// blockSize is the length of the blocks a stream sends its mix in:
// every block holds each class in exact proportion, in a seeded random
// order, so every run sends its mix exactly while two clients on the same
// mix never fall into step.
const blockSize = 50

// opStream is one client's seeded sequence of operations; the seed also
// picks the keys and the write contents.
type opStream struct {
	ks    *keyspace
	mix   mix
	block []opKind
	rnd   *rand.Rand
	zipf  *rand.Zipf
}

func newOpStream(ks *keyspace, m mix, seed int64) *opStream {
	rnd := rand.New(rand.NewSource(seed))
	return &opStream{ks: ks, mix: m, rnd: rnd, zipf: rand.NewZipf(rnd, 1.1, 1, uint64(len(ks.hot)-1))}
}

func (st *opStream) next() op {
	if len(st.block) == 0 {
		for k, w := range st.mix {
			for i := 0; i < int(w*blockSize+0.5); i++ {
				st.block = append(st.block, opKind(k))
			}
		}
		st.rnd.Shuffle(len(st.block), func(i, j int) { st.block[i], st.block[j] = st.block[j], st.block[i] })
	}
	k := st.block[0]
	st.block = st.block[1:]
	return st.make(k)
}

// make builds an operation of the given class.
func (st *opStream) make(kind opKind) op {
	ks := st.ks
	switch kind {
	case opLookup:
		return readOp(kind, ks.hot[st.zipf.Uint64()])
	case opMiss:
		i := ks.nextFresh.Add(1) - 1
		return readOp(kind, ks.fresh[int(i)%len(ks.fresh)])
	case opScan:
		return readOp(kind, "")
	case opWrite:
		w := &writeSpec{}
		n := 1 + st.rnd.Intn(8)
		for i := 0; i < n; i++ {
			w.pages = append(w.pages, pageSet{ks.books[st.rnd.Intn(len(ks.books))], 1 + st.rnd.Int63n(5000)})
		}
		if st.rnd.Intn(5) == 0 {
			w.author = fmt.Sprintf("w%d-%d", ks.seed, ks.nextAuthor.Add(1))
			w.relTo = ks.authors[st.rnd.Intn(len(ks.authors))]
		}
		return op{kind: kind, path: "/graph/apply", body: w.body(), write: w}
	default:
		return op{kind: opValidate, path: "/validate", body: []byte(`{"apiVersion":"v1"}`)}
	}
}

// readOp is a lookup of the named author, or a scan when name is empty.
func readOp(kind opKind, name string) op {
	q := scanQuery
	if name != "" {
		q = lookupQuery(name)
	}
	data, err := json.Marshal(struct {
		Query string `json:"query"`
	}{q})
	if err != nil {
		panic(err) // a string field always marshals
	}
	return op{kind: kind, name: name, query: q, path: "/graphql", body: data}
}

// expectations is the state the output checks compare against. Writes
// update it as they are acknowledged.
type expectations struct {
	reference []violationKey
	authors   atomic.Int64

	mu        sync.Mutex
	lastEpoch uint64
	pages     map[int64]int64
	added     []string
}

// check verifies one response cheaply next to the operation it checks,
// so the client does not compete with the server for the cores. A
// non-empty result names the failure.
func (ex *expectations) check(o *op, status int, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("%s: HTTP %d: %.200s", kindNames[o.kind], status, body)
	}
	switch o.kind {
	case opLookup, opMiss:
		if !bytes.Contains(body, []byte(strconv.Quote(o.name))) || bytes.Contains(body, []byte(`"errors"`)) {
			return fmt.Sprintf("lookup %q: answer lacks the author: %.200s", o.name, body)
		}
	case opScan:
		rows := bytes.Count(body, []byte(`"name"`))
		if want := ex.authors.Load(); int64(rows) != want {
			return fmt.Sprintf("scan: %d rows, want %d", rows, want)
		}
	case opWrite:
		var resp struct {
			Applied bool   `json:"applied"`
			Epoch   uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || !resp.Applied {
			return fmt.Sprintf("write: not applied (%v): %.200s", err, body)
		}
		ex.mu.Lock()
		defer ex.mu.Unlock()
		if resp.Epoch <= ex.lastEpoch {
			return fmt.Sprintf("write: epoch %d after %d", resp.Epoch, ex.lastEpoch)
		}
		ex.lastEpoch = resp.Epoch
		for _, p := range o.write.pages {
			ex.pages[p.node] = p.value
		}
		if o.write.author != "" {
			ex.added = append(ex.added, o.write.author)
			ex.authors.Add(1)
		}
	case opValidate:
		var resp struct {
			Incomplete bool           `json:"incomplete"`
			Truncated  bool           `json:"truncated"`
			Violations []violationKey `json:"violations"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Sprintf("validate: %v", err)
		}
		if resp.Incomplete || resp.Truncated {
			return "validate: incomplete or truncated run"
		}
		sortKeys(resp.Violations)
		if len(resp.Violations) != len(ex.reference) {
			return fmt.Sprintf("validate: %d violations, reference has %d", len(resp.Violations), len(ex.reference))
		}
		for i := range resp.Violations {
			if resp.Violations[i] != ex.reference[i] {
				return fmt.Sprintf("validate: violation %d is %+v, reference has %+v", i, resp.Violations[i], ex.reference[i])
			}
		}
	}
	return ""
}
