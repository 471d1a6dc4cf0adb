package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
)

// Dataset sizes. They are a quarter (APB-1) and half (out-of-core) of
// the ROADMAP's fixed inputs, so that every run of every workload,
// set-up included, stays well inside its time budget on a 2-core host.
// The tests shrink them through config.scale.
const (
	apbDensity = 0.01
	oocRows    = 500_000
)

// dataSeed generates every fact table. The workload seed varies the op
// list and the nodes checked after each build, not the data: the cube's
// physical layout, and with it zone-map pruning, shifts between
// generator seeds (at APB-1 density 0.01 the op list's predicates skip
// 63% of zone blocks on seed 1's cube but 38% on seed 31's, whose slices
// and ranges then take twice as long), which would make each seed a
// different workload.
const dataSeed = 1

// Build settings shared by every cube the benchmark makes.
const (
	buildWorkers = 2
	// zoneBlockRows matches the query-throughput cube, so point and
	// range selections have multi-block extents to prune.
	zoneBlockRows = 64
	// oocBudgetDiv sizes the out-of-core memory budget as fact bytes / 8.
	oocBudgetDiv = 8
	// coldBlockCache is the decoded-block cache of the APB-1 workload's
	// queries, well below its cube's working set (the tests' smaller
	// scales resize it in proportion).
	coldBlockCache = 2 << 20
)

// workload is one benchmark input and the way it is driven.
type workload struct {
	name string
	why  string
	// ooc selects the out-of-core synthetic input, built under a memory
	// budget and queried with every cache holding the cube. Otherwise
	// the input is APB-1, built in memory and queried with its fact-page
	// and decoded-block caches below the working set. Each workload thus
	// runs one build path and one cache regime, and skips the other.
	ooc bool
}

var workloads = []workload{
	{name: "apb-build", why: "APB-1 in-memory CURE+ build, then queries with caches below the working set: cubing, signature-pool flush, sorting, finalize; fact-page reads, eviction, block decode"},
	{name: "ooc-build", why: "out-of-core build under a fact/8 budget, then queries with every cache holding the cube: scan, partitioning, paged resolver; fact-cache hits, zone pruning, AGGREGATES lookup", ooc: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// aggSpecs are the cube's aggregates: SUM of the first measure and
// COUNT, as in the cubebench experiments.
func aggSpecs() []relation.AggSpec {
	return []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
}

// dataset is a generated fact file and its hierarchy.
type dataset struct {
	factPath  string
	hier      *hierarchy.Schema
	factBytes int64
}

// generate writes the workload's fact table to dir/fact.bin. The same
// scale always gives the same rows.
func generate(w workload, dir string, scale float64) (*dataset, error) {
	path := filepath.Join(dir, "fact.bin")
	ds := &dataset{factPath: path}
	var err error
	if w.ooc {
		ds.hier, err = writeOOCFact(path, int64(float64(oocRows)*scale), dataSeed)
	} else {
		_, ds.hier, err = gen.APBToFile(path, apbDensity*scale, dataSeed)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	fr, err := relation.OpenFactReader(path)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	ds.factBytes = fr.Rows() * int64(fr.RowWidth()) // as core.Build sizes it
	return ds, nil
}

// writeOOCFact streams the out-of-core input: a hierarchical first
// dimension A (8192 → 512 → 32) to partition on, flat B (64), C (8) and
// D (8), and one small integer measure, all uniform.
func writeOOCFact(path string, rows, seed int64) (*hierarchy.Schema, error) {
	m01 := hierarchy.BuildContiguousMap(8192, 512)
	m02 := hierarchy.ComposeMaps(m01, hierarchy.BuildContiguousMap(512, 32))
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{8192, 512, 32}, [][]int32{m01, m02})
	if err != nil {
		return nil, err
	}
	hier, err := hierarchy.NewSchema(a,
		hierarchy.NewFlatDim("B", 64), hierarchy.NewFlatDim("C", 8), hierarchy.NewFlatDim("D", 8))
	if err != nil {
		return nil, err
	}
	schema := &relation.Schema{DimNames: []string{"A", "B", "C", "D"}, MeasureNames: []string{"M"}}
	fw, err := relation.NewFactWriter(path, schema, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	dims := make([]int32, 4)
	meas := make([]float64, 1)
	for i := int64(0); i < rows; i++ {
		dims[0], dims[1], dims[2], dims[3] = int32(rng.Intn(8192)), int32(rng.Intn(64)), int32(rng.Intn(8)), int32(rng.Intn(8))
		meas[0] = float64(rng.Intn(100))
		if err := fw.Write(dims, meas); err != nil {
			fw.Close()
			return nil, err
		}
	}
	return hier, fw.Close()
}

// buildOptions returns the core.Build options of a cube over ds; a zero
// budget builds in memory.
func buildOptions(ds *dataset, dir string, budget int64) core.Options {
	return core.Options{
		Dir: dir, FactPath: ds.factPath, Hier: ds.hier, AggSpecs: aggSpecs(), MemoryBudget: budget,
		Plus: true, Compression: "auto", Parallelism: buildWorkers, ZoneBlockRows: zoneBlockRows,
	}
}

// oocBudget is the out-of-core memory budget for ds.
func oocBudget(ds *dataset) int64 { return ds.factBytes / oocBudgetDiv }

// budget is the memory budget of the workload's own builds.
func (w workload) budget(ds *dataset) int64 {
	if w.ooc {
		return oocBudget(ds)
	}
	return 0
}

// queryOptions returns the engine options of the workload: every cache
// large enough for the whole cube (out of core), or a quarter of the fact
// table and a decoded-block cache well below the cube (APB-1).
func queryOptions(w workload, scale float64) query.Options {
	if w.ooc {
		return query.Options{CacheFraction: 1, PinAggregates: true, DecodedCacheBytes: 256 << 20}
	}
	bc := int64(coldBlockCache * scale)
	if bc < 64<<10 {
		bc = 64 << 10
	}
	return query.Options{CacheFraction: 0.25, PinAggregates: true, DecodedCacheBytes: bc}
}

// Op classes of the query mix.
const (
	opSlice = iota
	opRange
	opRollup
	numClasses
)

var className = [numClasses]string{"slice", "range", "rollup"}

// op is one query of the fixed op list. want is the oracle's answer,
// filled in during set-up.
type op struct {
	class int
	node  lattice.NodeID
	pred  query.Predicate // slice and range ops
	want  digest
}

// rollupRounds is how often each coarse node appears in one pass of the
// op list: enough roll-ups for a p95 with ten samples beyond it in a
// single pass.
func rollupRounds(coarse int) int {
	need := 20 * minBeyond
	return (need + coarse - 1) / coarse
}

// makeOps builds the seeded op list, following the query-throughput mix:
// 40% point slices on dimension 0, 30% range selections at a coarser
// level of dimension 0, 30% roll-up scans of coarse nodes (at most two
// grouped dimensions). The class counts and the multiset of roll-up
// nodes are fixed; the seed picks codes, ranges and the order, so every
// seed yields the same mix.
func makeOps(hier *hierarchy.Schema, enum *lattice.Enum, seed int64) []op {
	var coarse []lattice.NodeID
	for _, id := range enum.AllNodes() {
		if enum.GroupingArity(id) <= 2 {
			coarse = append(coarse, id)
		}
	}
	rollups := rollupRounds(len(coarse)) * len(coarse)
	ranges := rollups
	slices := rollups * 4 / 3

	d0 := hier.Dims[0]
	top := d0.AllLevel() - 1 // coarsest real level of dimension 0
	rangeLevel := top
	if rangeLevel > 3 {
		rangeLevel = 3
	}
	nodeAt := func(l0 int) lattice.NodeID {
		levels := make([]int, hier.NumDims())
		for d := range levels {
			levels[d] = hier.Dims[d].AllLevel()
		}
		levels[0] = l0
		levels[2] = 0
		return enum.Encode(levels)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0b5))
	// Codes are drawn one per stratum of each level's code range, so
	// every seed covers the popular and the rare codes alike and the
	// per-class latency distribution does not hinge on a lucky draw.
	stratum := func(i, n, card int) int32 {
		lo, hi := i*card/n, (i+1)*card/n
		return int32(lo + rng.Intn(max(hi-lo, 1)))
	}
	ops := make([]op, 0, slices+ranges+rollups)
	for i := 0; i < slices; i++ {
		l := 1 + i%2
		if l > top {
			l = top
		}
		code := stratum(i/2, (slices+1)/2, int(d0.Card(l)))
		ops = append(ops, op{class: opSlice, node: nodeAt(l), pred: query.Predicate{Dim: 0, Level: l, Lo: code, Hi: code}})
	}
	card := int(d0.Card(rangeLevel))
	for i := 0; i < ranges; i++ {
		lo := stratum(i, ranges, card)
		hi := min(lo+int32(card/8), int32(card-1))
		ops = append(ops, op{class: opRange, node: nodeAt(1), pred: query.Predicate{Dim: 0, Level: rangeLevel, Lo: lo, Hi: hi}})
	}
	for i := 0; i < rollups; i++ {
		ops = append(ops, op{class: opRollup, node: coarse[i%len(coarse)]})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runOp executes one op against eng, folding every returned row into a
// digest.
func runOp(eng *query.Engine, o *op) (digest, error) {
	var d digest
	fn := func(r query.Row) error { d.add(r.Dims, r.Aggrs); return nil }
	var err error
	switch o.class {
	case opSlice:
		err = eng.SliceQuery(o.node, o.pred.Dim, o.pred.Level, o.pred.Lo, fn)
	case opRange:
		err = eng.NodeQueryWhere(o.node, []query.Predicate{o.pred}, fn)
	default:
		err = eng.NodeQuery(o.node, fn)
	}
	return d, err
}
