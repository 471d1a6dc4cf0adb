package main

import (
	"fmt"
	"math"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
)

// digest is an order-independent fingerprint of a query answer: the row
// count plus a wrapping sum of one hash per row over its grouping codes
// and aggregates. A missing, duplicated or altered row changes it.
type digest struct {
	rows int64
	sum  uint64
}

func (d *digest) add(codes []int32, aggrs []float64) {
	h := uint64(len(codes)) * 0x9e3779b97f4a7c15
	for _, c := range codes {
		h = mix(h ^ uint64(uint32(c)))
	}
	for _, a := range aggrs {
		h = mix(h ^ math.Float64bits(a))
	}
	d.rows++
	d.sum += h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// groupBy is the GROUP-BY of one node: per group the grouping codes at
// the node's levels, one base-level representative per grouped
// dimension (to evaluate predicates at coarser levels), and the
// aggregates in the cube's order (SUM of measure 0, COUNT). Codes and
// representatives are stored flat, arity entries per group.
type groupBy struct {
	arity int
	codes []int32
	reps  []int32
	aggrs [][2]float64
}

// oracle answers node queries by GROUP-BY over the generated fact table,
// independently of the cube. APB-1 and the out-of-core input carry small
// integer measures, so the sums are exact in float64 and answers compare
// exactly.
type oracle struct {
	table *relation.FactTable
	hier  *hierarchy.Schema
	enum  *lattice.Enum
}

func newOracle(table *relation.FactTable, hier *hierarchy.Schema, enum *lattice.Enum) *oracle {
	return &oracle{table: table, hier: hier, enum: enum}
}

// groupBy computes the GROUP-BY of node id.
func (o *oracle) groupBy(id lattice.NodeID) *groupBy {
	levels := o.enum.Decode(id, nil)
	var active []int
	for d, l := range levels {
		if !o.hier.Dims[d].IsAll(l) {
			active = append(active, d)
		}
	}
	g := &groupBy{arity: len(active)}
	index := map[uint64]int{}
	codes := make([]int32, len(active))
	m0 := o.table.Measures[0]
	for r, n := 0, o.table.Len(); r < n; r++ {
		var key uint64
		for i, d := range active {
			c := o.hier.Dims[d].MapCode(o.table.Dims[d][r], levels[d])
			codes[i] = c
			key = key*uint64(o.hier.Dims[d].Card(levels[d])) + uint64(c)
		}
		gi, ok := index[key]
		if !ok {
			gi = len(g.aggrs)
			index[key] = gi
			g.codes = append(g.codes, codes...)
			for _, d := range active {
				g.reps = append(g.reps, o.table.Dims[d][r])
			}
			g.aggrs = append(g.aggrs, [2]float64{})
		}
		g.aggrs[gi][0] += m0[r]
		g.aggrs[gi][1]++
	}
	return g
}

// answer returns the digest of node id's tuples that satisfy preds
// (predicates may name any level at or above the node's level of their
// dimension, as query.NodeQueryWhere accepts). GROUP-BYs are reused
// through cache when it is not nil.
func (o *oracle) answer(id lattice.NodeID, preds []query.Predicate, cache map[lattice.NodeID]*groupBy) (digest, error) {
	levels := o.enum.Decode(id, nil)
	slot := make([]int, len(preds)) // predicate → index among grouped dims
	for i, p := range preds {
		if p.Dim < 0 || p.Dim >= len(levels) || o.hier.Dims[p.Dim].IsAll(levels[p.Dim]) || p.Level < levels[p.Dim] {
			return digest{}, fmt.Errorf("oracle: predicate %+v not answerable at node %d", p, id)
		}
		for d := 0; d < p.Dim; d++ {
			if !o.hier.Dims[d].IsAll(levels[d]) {
				slot[i]++
			}
		}
	}
	g := cache[id]
	if g == nil {
		g = o.groupBy(id)
		if cache != nil {
			cache[id] = g
		}
	}
	var dg digest
	for gi := range g.aggrs {
		codes := g.codes[gi*g.arity : (gi+1)*g.arity]
		reps := g.reps[gi*g.arity : (gi+1)*g.arity]
		ok := true
		for i, p := range preds {
			if !p.Match(o.hier.Dims[p.Dim].MapCode(reps[slot[i]], p.Level)) {
				ok = false
				break
			}
		}
		if ok {
			dg.add(codes, g.aggrs[gi][:])
		}
	}
	return dg, nil
}

// expect fills in the oracle's answer for every op. Slices are asked of
// the node SliceQuery answers them from. The GROUP-BYs are dropped
// afterwards, so the measured part runs without them on the heap.
func (o *oracle) expect(ops []op) error {
	cache := map[lattice.NodeID]*groupBy{}
	for i := range ops {
		p := &ops[i]
		id := p.node
		var preds []query.Predicate
		if p.class != opRollup {
			preds = []query.Predicate{p.pred}
		}
		if p.class == opSlice {
			levels := o.enum.Decode(id, nil)
			if p.pred.Level < levels[p.pred.Dim] {
				levels[p.pred.Dim] = p.pred.Level
			}
			id = o.enum.Encode(levels)
		}
		want, err := o.answer(id, preds, cache)
		if err != nil {
			return err
		}
		p.want = want
	}
	return nil
}
