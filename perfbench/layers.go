package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/partition"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/sortutil"
	"cure/internal/storage"
)

// layerMetric describes one per-layer metric of the traced run and the
// end-to-end metric, on the named workloads, that it is expected to move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is the traced run's output, in print order.
var layerMetrics = []layerMetric{
	{"relation.load_s", "s", "build_s on apb-build (slightly)"},
	{"relation.scan_mb_s", "MB/s", "build_s on ooc-build"},
	{"relation.page_read_us", "us", "build_s on ooc-build; rollup_p95_ms on apb-build"},
	{"partition.scan_s", "s", "build_s on ooc-build"},
	{"partition.written_mb", "MB", "build_s on ooc-build"},
	{"partition.n_groups", "count", "build_s on ooc-build"},
	{"sortutil.sort_s", "s", "build_s on apb-build"},
	{"sortutil.allocs", "count", "build_s on apb-build"},
	{"signature.flush_s", "s", "build_s on apb-build"},
	{"signature.sigs_per_s", "1/s", "build_s on apb-build"},
	{"signature.cat_frac", "fraction", "build_s and cube_bytes_per_fact_byte on apb-build"},
	{"core.load_s", "s", "build_s on the workload that runs it"},
	{"core.cube_s", "s", "build_s on apb-build"},
	{"core.pool_flush_s", "s", "build_s on the workload that runs it"},
	{"core.finalize_s", "s", "build_s on the workload that runs it"},
	{"core.partition_split_s", "s", "build_s on ooc-build"},
	{"core.partition_cube_s", "s", "build_s on ooc-build"},
	{"storage.open_ms", "ms", "open_ms on both workloads"},
	{"storage.manifest_bytes", "bytes", "cube_bytes_per_fact_byte and open_ms"},
	{"storage.data_bytes", "bytes", "cube_bytes_per_fact_byte and open_ms"},
	{"storage.extent_scan_s", "s", "rollup_p50_ms and rollup_p95_ms on apb-build"},
	{"storage.decode_mb_s", "MB/s", "rollup_p50_ms and rollup_p95_ms on apb-build"},
	{"storage.prune_skip_frac", "fraction", "slice_p50_ms and range_p50_ms on ooc-build"},
	{"storage.agg_lookup_ns", "ns", "rollup_p50_ms on ooc-build"},
	{"query.fact_cache_hit_frac", "fraction", "qps_c1 and rollup_p95_ms on apb-build"},
	{"query.block_cache_hit_frac", "fraction", "qps_c1 and rollup_p95_ms on apb-build"},
	{"query.bytes_read_per_op", "bytes", "qps_c1 on apb-build"},
	{"query.bytes_decoded_per_op", "bytes", "qps_c1 on apb-build"},
	{"query.rows_per_op", "count", "none: constant for a seed, it checks the op list"},
	{"runtime.alloc_mb", "MiB", "build_s and peak_heap_mb on both builds"},
	{"runtime.gc_cycles", "count", "build_s and peak_heap_mb on both builds"},
	{"runtime.gc_pause_ms", "ms", "build_s on both builds"},
	{"trace.build_overhead_frac", "fraction", "none: traced build time over untraced, minus 1"},
	{"trace.query_overhead_frac", "fraction", "none: traced query pass time over untraced, minus 1"},
}

// tracedLayers are the layers whose self time the traced run reports
// (as trace.self_s.<layer>).
var tracedLayers = []string{"gen", "relation", "partition", "sortutil", "signature", "core", "storage", "query"}

// pageRows is the page size of the relation.page_read_us probe, the
// paged fact-row resolver's page.
const pageRows = 512

// maxPageReads caps the pages that probe reads.
const maxPageReads = 4096

// minAggLookups is the least number of DecodeAggregate calls timed.
const minAggLookups = 1 << 20

// readerOpens is how often the storage probe opens the cube; it reports
// the median.
const readerOpens = 5

// traced runs the workload once with tracing on and returns the
// per-layer metrics. Every layer call sits in a span; the build and a
// query pass are each also run untraced, and the gap is the overhead.
func (r *runner) traced(spansPath string) ([]metric, error) {
	r.tr = newTracer()
	root := r.tr.begin("bench", "run")
	vals := map[string]float64{}

	if _, err := r.setup(1); err != nil {
		return nil, err
	}
	if err := r.traceBuilds(vals); err != nil {
		return nil, err
	}
	if err := r.traceQueries(vals); err != nil {
		return nil, err
	}
	for _, probe := range []func(map[string]float64) error{
		r.probeRelation, r.probePartition, r.probeSort, r.probeSignature, r.probeStorage,
	} {
		if err := probe(vals); err != nil {
			return nil, err
		}
	}
	r.tr.end(root)

	var out []metric
	for _, lm := range layerMetrics {
		v, ok := vals[lm.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", lm.name)
		}
		out = append(out, metric{name: lm.name, unit: lm.unit, value: v, note: "moves " + lm.moves})
	}
	self := r.tr.selfTimes()
	for _, l := range tracedLayers {
		out = append(out, metric{name: "trace.self_s." + l, unit: "s", value: self[l]})
	}
	header := map[string]any{"workload": r.w.name, "seed": r.cfg.seed}
	if err := r.tr.write(spansPath, header); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

// memDelta measures the runtime's allocation and GC work around fn.
func memDelta(fn func() error) (allocMB, gcs, pauseMS float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.NumGC - a.NumGC), float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6, err
}

// spanSeconds finds the wall time of child name of the "build" root span
// in a registry snapshot. Only these top-level phases are used: nested
// spans add up worker time, not wall time.
func spanSeconds(snap *obsv.Snapshot, name string) (float64, bool) {
	for _, root := range snap.Spans {
		if root.Name != "build" {
			continue
		}
		for _, c := range root.Children {
			if c.Name == name {
				return c.ElapsedSec, true
			}
		}
	}
	return 0, false
}

// traceBuilds runs the workload's build untraced and traced (registry
// attached), then the other build path traced, so every core phase is
// timed on every workload. The traced build's cube becomes the one the
// query and storage probes use.
func (r *runner) traceBuilds(vals map[string]float64) error {
	plain := r.newCubeDir()
	ut, err := r.build(plain, r.w.budget(r.ds), nil)
	if err != nil {
		return err
	}
	if err := r.checkCube(plain); err != nil {
		return err
	}
	os.RemoveAll(plain)

	reg := obsv.NewRegistry()
	dir := r.newCubeDir()
	var tt float64
	alloc, gcs, pause, err := memDelta(func() (err error) {
		tt, err = r.build(dir, r.w.budget(r.ds), reg)
		return err
	})
	if err != nil {
		return err
	}
	if err := r.checkCube(dir); err != nil {
		return err
	}
	vals["trace.build_overhead_frac"] = tt/ut - 1
	vals["runtime.alloc_mb"], vals["runtime.gc_cycles"], vals["runtime.gc_pause_ms"] = alloc, gcs, pause
	r.cube = dir

	other := obsv.NewRegistry()
	odir := r.newCubeDir()
	otherBudget := oocBudget(r.ds)
	if r.w.ooc {
		otherBudget = 0
	}
	if _, err := r.build(odir, otherBudget, other); err != nil {
		return err
	}
	if err := r.checkCube(odir); err != nil {
		return err
	}
	os.RemoveAll(odir)

	own, alt := reg.Snapshot(), other.Snapshot()
	inMem, parted := own, alt
	if r.w.ooc {
		inMem, parted = alt, own
	}
	for _, p := range []struct {
		metric, span string
		snap         *obsv.Snapshot
	}{
		{"core.load_s", "load", own},
		{"core.pool_flush_s", "pool.flush", own},
		{"core.finalize_s", "finalize", own},
		{"core.cube_s", "cube", inMem},
		{"core.partition_split_s", "partition.split", parted},
		{"core.partition_cube_s", "partition.cube", parted},
	} {
		v, ok := spanSeconds(p.snap, p.span)
		if !ok {
			return fmt.Errorf("build recorded no build/%s span", p.span)
		}
		vals[p.metric] = v
	}
	return nil
}

// traceQueries opens the cube twice, untraced and with a registry
// attached, warms both with a pass, then times one pass on each (every
// op of the traced pass in a span) and reads the query layer's counters
// over the traced pass.
func (r *runner) traceQueries(vals map[string]float64) error {
	plain, _, err := r.openCube(r.cube, nil)
	if err != nil {
		return err
	}
	defer plain.Close()
	reg := obsv.NewRegistry()
	eng, _, err := r.openCube(r.cube, reg)
	if err != nil {
		return err
	}
	defer eng.Close()
	tr := r.tr
	r.tr = nil // only the timed traced pass records spans
	err = r.pass(plain, 1, nil)
	if err == nil {
		err = r.pass(eng, 1, nil)
	}
	var ut float64
	if err == nil {
		ut, err = r.timedPass(plain, 1, nil)
	}
	r.tr = tr
	if err != nil {
		return err
	}
	before := reg.Snapshot().Counters
	tt, err := r.timedPass(eng, 1, nil)
	if err != nil {
		return err
	}
	after := reg.Snapshot().Counters
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	frac := func(hit, miss string) float64 {
		if h, m := d(hit), d(miss); h+m > 0 {
			return h / (h + m)
		}
		return 1 // nothing looked up: nothing missed
	}
	ops := float64(len(r.ops))
	vals["trace.query_overhead_frac"] = tt/ut - 1
	vals["query.fact_cache_hit_frac"] = frac("query.cache.hits", "query.cache.misses")
	vals["query.block_cache_hit_frac"] = frac("query.block_cache.hits", "query.block_cache.misses")
	vals["query.bytes_read_per_op"] = d("query.bytes_read") / ops
	vals["query.bytes_decoded_per_op"] = d("query.bytes_decoded") / ops
	vals["query.rows_per_op"] = d("query.rows") / ops
	return nil
}

// probeRelation times the fact-file layer: a full load, a batched scan
// and page reads in the cube's row-id order.
func (r *runner) probeRelation(vals map[string]float64) error {
	t0 := time.Now()
	if err := r.tr.do("relation", "ReadFactFile", func() error {
		_, err := relation.ReadFactFile(r.ds.factPath)
		return err
	}); err != nil {
		return err
	}
	vals["relation.load_s"] = time.Since(t0).Seconds()

	fr, err := relation.OpenFactReader(r.ds.factPath)
	if err != nil {
		return err
	}
	defer fr.Close()
	var bytes int64
	t0 = time.Now()
	if err := r.tr.do("relation", "ScanBatches", func() error {
		return fr.ScanBatches(0, fr.Rows(), relation.BatchRowsFor(fr.RowWidth()), func(b *relation.Batch) error {
			bytes += int64(b.N) * int64(b.Width)
			return nil
		})
	}); err != nil {
		return err
	}
	vals["relation.scan_mb_s"] = float64(bytes) / 1e6 / time.Since(t0).Seconds()

	pages, err := r.cubePages(fr.Rows())
	if err != nil {
		return err
	}
	buf := make([]byte, pageRows*fr.RowWidth())
	t0 = time.Now()
	if err := r.tr.do("relation", "ReadRawAt", func() error {
		for _, p := range pages {
			n := min(int64(pageRows), fr.Rows()-p*pageRows)
			if err := fr.ReadRawAt(p*pageRows, int(n), buf[:n*int64(fr.RowWidth())]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	vals["relation.page_read_us"] = time.Since(t0).Seconds() * 1e6 / float64(len(pages))
	return nil
}

// cubePages lists the fact pages the cube's trivial tuples point at, in
// the cube's row-id order, dropping repeats of the page just read.
func (r *runner) cubePages(rows int64) ([]int64, error) {
	rd, err := storage.OpenReader(r.cube)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	var pages []int64
	var ids []int64
	for _, id := range r.enum.AllNodes() {
		if ids, err = rd.TTRowIDs(id, ids); err != nil {
			return nil, err
		}
		for _, rid := range ids {
			p := rid / pageRows
			if n := len(pages); n == 0 || pages[n-1] != p {
				pages = append(pages, p)
			}
			if len(pages) == maxPageReads {
				return pages, nil
			}
		}
	}
	if len(pages) == 0 {
		pages = append(pages, 0) // a cube with no trivial tuples
	}
	return pages, nil
}

// probePartition runs the partitioner alone at the out-of-core budget.
func (r *runner) probePartition(vals map[string]float64) error {
	budget := oocBudget(r.ds)
	dir := filepath.Join(r.cfg.workDir, "partitions")
	defer os.RemoveAll(dir)
	var res *partition.Result
	t0 := time.Now()
	if err := r.tr.do("partition", "SelectLevel+PartitionScan", func() error {
		choice, err := partition.SelectLevel(r.ds.hier.Dims[0], r.ds.factBytes, budget/2, budget/4)
		if err != nil {
			return err
		}
		res, err = partition.PartitionScan(r.ds.factPath, dir, r.ds.hier, aggSpecs(), choice,
			partition.ScanConfig{Parallelism: buildWorkers})
		return err
	}); err != nil {
		return fmt.Errorf("partition probe: %w", err)
	}
	vals["partition.scan_s"] = time.Since(t0).Seconds()
	var written int64
	for _, p := range res.PartitionPaths {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		written += fi.Size()
	}
	vals["partition.written_mb"] = float64(written) / 1e6
	vals["partition.n_groups"] = float64(res.N.Len())
	return nil
}

// probeSort sorts the fact table's row index on each dimension's base
// level, as the root of the cubing recursion does.
func (r *runner) probeSort(vals map[string]float64) error {
	t := r.orc.table
	idx := make([]int32, t.Len())
	var s sortutil.Sorter
	var a, b runtime.MemStats
	var el time.Duration
	runtime.ReadMemStats(&a)
	for d := range t.Dims {
		sortutil.Iota(idx, len(idx))
		key := sortutil.SliceKeyer{Col: t.Dims[d], Hi: r.ds.hier.Dims[d].Card(0)}
		t0 := time.Now()
		id := r.tr.begin("sortutil", "Sort")
		s.Sort(idx, key)
		r.tr.end(id)
		el += time.Since(t0)
		if !sortutil.IsSorted(idx, key) {
			return fmt.Errorf("sort probe: dimension %d not sorted", d)
		}
	}
	runtime.ReadMemStats(&b)
	vals["sortutil.sort_s"] = el.Seconds()
	vals["sortutil.allocs"] = float64(b.Mallocs - a.Mallocs)
	return nil
}

// discardSink accepts classified tuples and keeps nothing.
type discardSink struct{ aggs int64 }

func (discardSink) WriteNT(lattice.NodeID, int64, []float64) error { return nil }
func (s *discardSink) AppendAggregate(int64, []float64) (int64, error) {
	s.aggs++
	return s.aggs - 1, nil
}
func (discardSink) WriteCAT(lattice.NodeID, int64, int64) error { return nil }

// sigTuple is one signature read back from the cube.
type sigTuple struct {
	node   lattice.NodeID
	rrowid int64
	aggrs  [2]float64
}

// probeSignature feeds the cube's normal and common-aggregate tuples,
// read back through the storage reader, into a fresh signature pool.
func (r *runner) probeSignature(vals map[string]float64) error {
	var sigs []sigTuple
	if err := r.tr.do("storage", "read signatures", func() error {
		rd, err := storage.OpenReader(r.cube)
		if err != nil {
			return err
		}
		defer rd.Close()
		raw, err := rd.AggregatesRaw()
		if err != nil {
			return err
		}
		aggrs := make([]float64, 2)
		for _, id := range r.enum.AllNodes() {
			if err := rd.NTRows(id, func(row storage.NTRow) error {
				sigs = append(sigs, sigTuple{node: id, rrowid: row.RRowid, aggrs: [2]float64{row.Aggrs[0], row.Aggrs[1]}})
				return nil
			}); err != nil {
				return err
			}
			if err := rd.CATRows(id, func(row storage.CATRow) error {
				rrowid := rd.DecodeAggregate(raw, row.ARowid, aggrs)
				if row.RRowid >= 0 {
					rrowid = row.RRowid
				}
				sigs = append(sigs, sigTuple{node: id, rrowid: rrowid, aggrs: [2]float64{aggrs[0], aggrs[1]}})
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("signature probe: %w", err)
	}
	if len(sigs) == 0 {
		return fmt.Errorf("signature probe: cube holds no signatures")
	}
	pool, err := signature.NewPool(2, len(sigs), &discardSink{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	var flush time.Duration
	if err := r.tr.do("signature", "Add+Flush", func() error {
		for i := range sigs {
			if err := pool.Add(sigs[i].node, sigs[i].rrowid, sigs[i].aggrs[:]); err != nil {
				return err
			}
		}
		f0 := time.Now()
		err := pool.Flush()
		flush = time.Since(f0)
		return err
	}); err != nil {
		return err
	}
	st := pool.Stats()
	vals["signature.flush_s"] = flush.Seconds()
	vals["signature.sigs_per_s"] = float64(st.Total) / time.Since(t0).Seconds()
	vals["signature.cat_frac"] = float64(st.CatSigs) / float64(st.Total)
	return nil
}

// probeStorage times the cube reader: opens, a full extent scan without
// a block cache, zone pruning of the op list's predicates and
// AGGREGATES lookups.
func (r *runner) probeStorage(vals map[string]float64) error {
	var opens []float64
	for i := 0; i < readerOpens; i++ {
		t0 := time.Now()
		var rd *storage.Reader
		if err := r.tr.do("storage", "OpenReader", func() (err error) {
			rd, err = storage.OpenReader(r.cube)
			return err
		}); err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())
		rd.Close()
	}
	vals["storage.open_ms"] = median(opens) * 1e3
	total, err := dirBytes(r.cube)
	if err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(r.cube, "manifest.json"))
	if err != nil {
		return err
	}
	vals["storage.manifest_bytes"] = float64(fi.Size())
	vals["storage.data_bytes"] = float64(total - fi.Size())

	rd, err := storage.OpenReader(r.cube)
	if err != nil {
		return err
	}
	defer rd.Close()
	var io storage.IOStats
	var ids []int64
	t0 := time.Now()
	if err := r.tr.do("storage", "extent scan", func() error {
		for _, id := range r.enum.AllNodes() {
			if ids, err = rd.TTRowIDsIO(id, ids, &io); err != nil {
				return err
			}
			if err := rd.NTRowsRanges(id, nil, &io, func(storage.NTRow) error { return nil }); err != nil {
				return err
			}
			if err := rd.CATRowsRanges(id, nil, &io, func(storage.CATRow) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	el := time.Since(t0).Seconds()
	vals["storage.extent_scan_s"] = el
	vals["storage.decode_mb_s"] = float64(io.BytesDecoded) / 1e6 / el

	var blocks, skipped int
	id := r.tr.begin("storage", "PruneZonesStats")
	offs, _ := storage.ZoneSlots(r.ds.hier)
	m := rd.Manifest()
	for _, o := range r.ops {
		if o.class == opRollup {
			continue
		}
		nm, ok := m.NodeMeta(o.node)
		if !ok {
			continue
		}
		zp := []storage.ZonePred{{Slot: offs[o.pred.Dim] + o.pred.Level, Lo: o.pred.Lo, Hi: o.pred.Hi}}
		for _, z := range []struct {
			idx  *storage.ZoneIndex
			rows int64
		}{{nm.NTZones, nm.NTRows}, {nm.TTZones, nm.TTRows}, {nm.CATZones, nm.CATRows}} {
			if z.idx == nil {
				continue
			}
			_, st := storage.PruneZonesStats(z.idx, z.rows, zp)
			blocks += st.Blocks
			skipped += st.Skipped
		}
	}
	r.tr.end(id)
	if blocks == 0 {
		return fmt.Errorf("storage probe: the op list's nodes have no zone maps")
	}
	vals["storage.prune_skip_frac"] = float64(skipped) / float64(blocks)

	raw, err := rd.AggregatesRaw()
	if err != nil {
		return err
	}
	n := rd.Manifest().AggRows
	if n == 0 {
		return fmt.Errorf("storage probe: cube has no AGGREGATES rows")
	}
	// Visit the rows in a fixed scattered order, as CAT lookups do.
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	sort.Slice(order, func(i, j int) bool { return mix(uint64(order[i])) < mix(uint64(order[j])) })
	aggrs := make([]float64, 2)
	lookups := 0
	t0 = time.Now()
	id = r.tr.begin("storage", "DecodeAggregate")
	for lookups < minAggLookups {
		for _, a := range order {
			rd.DecodeAggregate(raw, a, aggrs)
		}
		lookups += len(order)
	}
	r.tr.end(id)
	vals["storage.agg_lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(lookups)
	return nil
}
