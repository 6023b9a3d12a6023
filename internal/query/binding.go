package query

import (
	"sync"

	"pgschema/internal/pg"
)

// planBinding joins a compiled plan to one graph at one epoch: symbol
// slots resolved to the graph's interned Syms (NoSym matches nothing),
// subtype-closure rows per live label over the plan's fragment
// conditions, inverse-field dispatch rows per live label, and — lazily,
// under sync.Once guards — the per-type node enumerations and key-bucket
// indexes the root steps scan. Its visible state is immutable once
// built; the lazy parts must be first requested while the graph is
// still at the binding's epoch, which every caller guarantees because
// an execution holds the graph un-mutated for its duration (the server
// serializes /graph/apply against /graphql readers).
type planBinding struct {
	p     *Plan
	g     *pg.Graph
	epoch uint64
	snap  *pg.Snapshot

	// syms[slot] resolves Plan.symNames[slot] in this graph.
	syms []pg.Sym

	// subRows[sym][condID] ⇔ label ⊑S conds[condID]; non-nil exactly for
	// syms that are labels of live nodes (the only labels runtime
	// dispatch can see).
	subRows [][]bool

	// invRows[invIdx][sym] is the invTarget index applicable to a node
	// of that label, or -1.
	invRows [][]int32

	enumOnce sync.Once
	enums    [][]pg.NodeID // per Plan.enumTypes, ascending node IDs

	keyOnce sync.Once
	keyIdx  []keyBuckets // per Plan.lookups
}

// bindTo returns the plan bound to the graph at its current epoch,
// reusing the cached binding when neither the graph identity nor its
// epoch changed. Concurrent callers may race to rebuild; every built
// binding is valid and the last store wins.
func (p *Plan) bindTo(g *pg.Graph) *planBinding {
	if b := p.bound.Load(); b != nil && b.g == g && b.epoch == g.Epoch() {
		return b
	}
	b := p.newBinding(g)
	p.bound.Store(b)
	return b
}

func (p *Plan) newBinding(g *pg.Graph) *planBinding {
	b := &planBinding{p: p, g: g, epoch: g.Epoch(), snap: g.Snapshot()}
	b.syms = make([]pg.Sym, len(p.symNames))
	for i, n := range p.symNames {
		b.syms[i], _ = g.Sym(n)
	}
	b.subRows = make([][]bool, g.SymCount())
	if len(p.conds) > 0 {
		for _, l := range g.Labels() {
			sym, _ := g.Sym(l)
			row := make([]bool, len(p.conds))
			for i, cond := range p.conds {
				row[i] = p.s.SubtypeNamed(l, cond)
			}
			b.subRows[sym] = row
		}
	}
	if len(p.invs) > 0 {
		b.invRows = make([][]int32, len(p.invs))
		for i, inv := range p.invs {
			row := make([]int32, g.SymCount())
			for j := range row {
				row[j] = -1
			}
			for label, t := range inv.byLabel {
				if sym, ok := g.Sym(label); ok {
					row[sym] = t
				}
			}
			b.invRows[i] = row
		}
	}
	return b
}

// condHolds reports whether a node labeled `label` satisfies fragment
// condition condID (label ⊑S conds[condID]).
func (b *planBinding) condHolds(label pg.Sym, condID int32) bool {
	if label < 0 || int(label) >= len(b.subRows) {
		return false
	}
	row := b.subRows[label]
	return row != nil && row[condID]
}

// ensureEnums materializes the per-type node enumerations in one
// ascending scan of the snapshot's label column, once. Exact-label
// match (not subtype closure), like Graph.NodesLabeled.
func (b *planBinding) ensureEnums() {
	b.enumOnce.Do(func() {
		p := b.p
		b.enums = make([][]pg.NodeID, len(p.enumTypes))
		if len(p.enumTypes) == 0 {
			return
		}
		want := make([]int32, b.g.SymCount())
		for i := range want {
			want[i] = -1
		}
		any := false
		for i, tn := range p.enumTypes {
			if sym, ok := b.g.Sym(tn); ok {
				want[sym] = int32(i)
				any = true
			}
		}
		if !any {
			return
		}
		bound := b.snap.NodeBound()
		for v := 0; v < bound; v++ {
			sym := b.snap.NodeLabelSym(pg.NodeID(v))
			if sym < 0 {
				continue
			}
			if idx := want[sym]; idx >= 0 {
				b.enums[idx] = append(b.enums[idx], pg.NodeID(v))
			}
		}
	})
}

// keyBuckets is one looked-up type's key index: its nodes grouped by
// rendered key tuple, in ascending node-id order. Keys almost always
// identify one node, so a bucket's lowest node sits in first and only
// the rest of a bucket of two or more in more: a unique key costs one
// map slot and no slice.
type keyBuckets struct {
	first map[string]pg.NodeID
	more  map[string][]pg.NodeID
}

// keyIndex returns the key-bucket indexes, building them on first use
// (only executions with lookup roots pay for them). Buckets group each
// type's nodes by the rendered key tuple — "P"+Value.Key() per present
// key property, "A" per absent one — in ascending node-id order, so
// the first verified candidate is the lowest matching id, exactly what
// the (sorted) interpretive scan returns. Value.Key is not injective
// across kinds, hence the Equal verify pass at execution.
func (b *planBinding) keyIndex() []keyBuckets {
	b.keyOnce.Do(func() {
		b.ensureEnums()
		b.keyIdx = make([]keyBuckets, len(b.p.lookups))
		var key []byte
		for i, spec := range b.p.lookups {
			kb := keyBuckets{first: make(map[string]pg.NodeID)}
			for _, v := range b.enums[spec.enumIdx] {
				key = key[:0]
				for _, slot := range spec.slots {
					if val, ok := b.snap.NodePropBySym(v, b.syms[slot]); ok {
						key = append(key, 'P')
						key = append(key, val.Key()...)
					} else {
						key = append(key, 'A')
					}
					key = append(key, 0)
				}
				if _, dup := kb.first[string(key)]; !dup {
					kb.first[string(key)] = v
					continue
				}
				if kb.more == nil {
					kb.more = make(map[string][]pg.NodeID)
				}
				k := string(key)
				kb.more[k] = append(kb.more[k], v)
			}
			b.keyIdx[i] = kb
		}
	})
	return b.keyIdx
}
