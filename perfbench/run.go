package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"cure/internal/core"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/query"
	"cure/internal/relation"
)

const (
	// setupReps is how often an end-to-end run sets up; setup_s is the
	// median.
	setupReps = 5
	// minRounds is the least number of measuring rounds in a run.
	minRounds = 2
	// opensPerWindow is how often a round opens and closes the cube
	// before its query passes, and again after them.
	opensPerWindow = 4
	// checkNodes is the number of seeded nodes checked after each build.
	checkNodes = 4
	// maxReportedErrors caps the query errors echoed to stderr.
	maxReportedErrors = 5
)

// metric is one reported figure. note carries the sample counts behind
// it for the human-readable line. An info metric is printed there only,
// not in the result line.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
	info  bool
}

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	workDir string // private to this run, removed afterwards
}

// runner holds the state of one run of one workload.
type runner struct {
	cfg config
	w   workload
	tr  *tracer // nil in end-to-end runs

	ds   *dataset
	enum *lattice.Enum
	orc  *oracle
	ops  []op

	cube   string        // directory of the cube the queries run on
	eng    *query.Engine // engine of the current query round, untraced
	builds int           // cube directories made so far

	attempted atomic.Int64
	failed    atomic.Int64
}

func (r *runner) close() {
	if r.eng != nil {
		r.eng.Close()
		r.eng = nil
	}
}

// fail counts one wrong or failed answer and echoes the first few.
func (r *runner) fail(what string, err error) {
	if r.failed.Add(1) <= maxReportedErrors {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// prepare generates the dataset (timed, traced as layer gen) and, the
// first time, loads it for the oracle and derives the op list with its
// expected answers. It returns the generation time.
func (r *runner) prepare() (float64, error) {
	t0 := time.Now()
	var ds *dataset
	err := r.tr.do("gen", "generate", func() (err error) {
		ds, err = generate(r.w, r.cfg.workDir, r.cfg.scale)
		return err
	})
	if err != nil {
		return 0, err
	}
	el := time.Since(t0).Seconds()
	r.ds = ds
	if r.orc == nil {
		table, err := relation.ReadFactFile(ds.factPath)
		if err != nil {
			return 0, fmt.Errorf("load fact table for the oracle: %w", err)
		}
		r.enum = lattice.NewEnum(ds.hier)
		r.orc = newOracle(table, ds.hier, r.enum)
		r.ops = makeOps(ds.hier, r.enum, r.cfg.seed)
		if err := r.orc.expect(r.ops); err != nil {
			return 0, err
		}
	}
	return el, nil
}

// newCubeDir returns a fresh directory name for the next build.
func (r *runner) newCubeDir() string {
	r.builds++
	return filepath.Join(r.cfg.workDir, fmt.Sprintf("cube%d", r.builds))
}

// build runs core.Build into dir under budget (0 = in memory) and
// returns its wall time. With reg set
// the build records its phase spans there, and they join the trace.
func (r *runner) build(dir string, budget int64, reg *obsv.Registry) (float64, error) {
	opts := buildOptions(r.ds, dir, budget)
	opts.Metrics = reg
	runtime.GC() // start every timed unit from the same heap state
	id := r.tr.begin("core", "core.Build")
	t0 := time.Now()
	_, err := core.Build(opts)
	el := time.Since(t0).Seconds()
	r.tr.end(id)
	if reg != nil {
		r.tr.adopt(id, "core", reg.Snapshot().Spans)
	}
	if err != nil {
		return 0, fmt.Errorf("build %s: %w", dir, err)
	}
	return el, nil
}

// checkCube compares a seeded sample of nodes of the cube in dir with
// the oracle. Every node counts as one attempted answer.
func (r *runner) checkCube(dir string) error {
	eng, err := query.Open(dir, query.Options{CacheFraction: 1})
	if err != nil {
		return fmt.Errorf("open %s for checking: %w", dir, err)
	}
	defer eng.Close()
	nodes := r.enum.AllNodes()
	rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(r.builds)))
	for i := 0; i < checkNodes; i++ {
		o := op{class: opRollup, node: nodes[rng.Intn(len(nodes))]}
		want, err := r.orc.answer(o.node, nil, nil)
		if err != nil {
			return err
		}
		r.attempted.Add(1)
		got, err := runOp(eng, &o)
		if err != nil {
			r.fail(fmt.Sprintf("check node %s", r.enum.Name(o.node)), err)
		} else if got != want {
			r.fail(fmt.Sprintf("check node %s", r.enum.Name(o.node)), fmt.Errorf("got %d rows %x, want %d rows %x", got.rows, got.sum, want.rows, want.sum))
		}
	}
	return nil
}

// openCube opens the workload's engine over dir and returns it with the
// time the open took.
func (r *runner) openCube(dir string, reg *obsv.Registry) (*query.Engine, float64, error) {
	opts := queryOptions(r.w, r.cfg.scale)
	opts.Metrics = reg
	runtime.GC()
	t0 := time.Now()
	eng, err := query.Open(dir, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("open %s: %w", dir, err)
	}
	return eng, time.Since(t0).Seconds(), nil
}

// setup generates the dataset reps times and returns each generation's
// time.
func (r *runner) setup(reps int) ([]float64, error) {
	var setups []float64
	for i := 0; i < reps; i++ {
		s, err := r.prepare()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	return setups, nil
}

// pass runs the whole op list once with clients closed-loop clients and
// checks every answer. With lat set it records each op's latency in
// milliseconds by class; with the tracer set each op is a span of layer
// query. Both need a single client.
func (r *runner) pass(eng *query.Engine, clients int, lat *[numClasses][]float64) error {
	return query.ForEach(clients, len(r.ops), func(i int) error {
		o := &r.ops[i]
		id := r.tr.begin("query", className[o.class])
		t0 := time.Now()
		got, err := runOp(eng, o)
		el := time.Since(t0)
		r.tr.end(id)
		r.attempted.Add(1)
		if err != nil {
			r.fail(className[o.class]+" "+r.enum.Name(o.node), err)
		} else if got != o.want {
			r.fail(className[o.class]+" "+r.enum.Name(o.node), fmt.Errorf("got %d rows %x, want %d rows %x", got.rows, got.sum, o.want.rows, o.want.sum))
		}
		if lat != nil {
			lat[o.class] = append(lat[o.class], float64(el)/1e6)
		}
		return nil
	})
}

// timedPass runs one pass, starting from a collected heap, and returns
// its wall time.
func (r *runner) timedPass(eng *query.Engine, clients int, lat *[numClasses][]float64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := r.pass(eng, clients, lat)
	return time.Since(t0).Seconds(), err
}

// heapSampler records the highest Go heap in use while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapInUse returns the bytes of Go heap objects, live or not yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, heapInUse())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// dirBytes sums the sizes of every file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// samples are the measurements of an end-to-end run's timed part.
type samples struct {
	builds, opens  []float64
	lat            [numClasses][]float64
	c1Ops, c2Ops   int
	c1Secs, c2Secs float64
	peakHeap       float64 // MiB
}

// watch runs fn while sampling the heap and raises m.peakHeap to the
// most fn added to the live heap it started from, which is measured after
// a collection. What stays live across the run (the dataset, the oracle's
// fact table) is thus left out. Only the workload's builds and query
// passes are watched: an open's or a check's garbage would otherwise set
// the peak, at a height that depends on when the collector happens to
// run.
func (m *samples) watch(fn func() error) error {
	runtime.GC()
	base := heapInUse()
	h := startHeapSampler()
	err := fn()
	if peak := h.finish(); peak > base {
		m.peakHeap = max(m.peakHeap, float64(peak-base)/(1<<20))
	}
	return err
}

// measure runs the timed part in rounds until --seconds have passed, and
// at least minRounds: a build and its check, then opensPerWindow opens of
// the cube of the first build, a C=1 pass and a C=2 pass over it on an
// engine that an untimed pass warms, and opensPerWindow opens again. The
// engine is opened after the first opens and closed before the second,
// so that neither the opens nor the builds run beside its caches. Interleaving spreads each
// metric's samples over the whole run, so a slow stretch of the host
// moves every metric a little rather than one of them a lot.
func (r *runner) measure(m *samples) error {
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < r.cfg.seconds; round++ {
		dir := r.newCubeDir()
		var bt float64
		if err := m.watch(func() (err error) {
			bt, err = r.build(dir, r.w.budget(r.ds), nil)
			return err
		}); err != nil {
			return err
		}
		if err := r.checkCube(dir); err != nil {
			return err
		}
		m.builds = append(m.builds, bt)
		if r.cube == "" {
			r.cube = dir
		} else {
			os.RemoveAll(dir)
		}
		if err := r.timeOpens(m); err != nil {
			return err
		}
		if err := r.queryRound(m); err != nil {
			return err
		}
		if err := r.timeOpens(m); err != nil {
			return err
		}
	}
	return nil
}

// timeOpens opens and closes the queried cube opensPerWindow times.
func (r *runner) timeOpens(m *samples) error {
	for i := 0; i < opensPerWindow; i++ {
		eng, ot, err := r.openCube(r.cube, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := eng.Close(); err != nil {
			return fmt.Errorf("close %s: %w", r.cube, err)
		}
		m.opens = append(m.opens, ot+time.Since(t0).Seconds())
	}
	return nil
}

// queryRound opens the round's engine, warms it with an untimed pass,
// times one C=1 and one C=2 pass, and closes it.
func (r *runner) queryRound(m *samples) error {
	var err error
	if r.eng, _, err = r.openCube(r.cube, nil); err != nil {
		return err
	}
	defer r.close()
	if err := r.pass(r.eng, 1, nil); err != nil {
		return err
	}
	var c1, c2 float64
	if err := m.watch(func() (err error) {
		c1, err = r.timedPass(r.eng, 1, &m.lat)
		return err
	}); err != nil {
		return err
	}
	if err := m.watch(func() (err error) {
		c2, err = r.timedPass(r.eng, 2, nil)
		return err
	}); err != nil {
		return err
	}
	m.c1Ops, m.c1Secs = m.c1Ops+len(r.ops), m.c1Secs+c1
	m.c2Ops, m.c2Secs = m.c2Ops+len(r.ops), m.c2Secs+c2
	return nil
}

// endToEnd runs the workload untraced and returns the end-to-end
// metrics.
func (r *runner) endToEnd() ([]metric, error) {
	setups, err := r.setup(setupReps)
	if err != nil {
		return nil, err
	}
	var m samples
	if err := r.measure(&m); err != nil {
		return nil, err
	}
	cubeB, err := dirBytes(r.cube)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(r.ds.factPath)
	if err != nil {
		return nil, err
	}
	out := []metric{
		{name: "setup_s", unit: "s", value: median(setups), note: fmt.Sprintf("median of %d", len(setups))},
		{name: "build_s", unit: "s", value: median(m.builds), note: fmt.Sprintf("median of %d", len(m.builds))},
		{name: "peak_heap_mb", unit: "MiB", value: m.peakHeap},
		{name: "cube_bytes_per_fact_byte", unit: "ratio", value: float64(cubeB) / float64(fi.Size()),
			note: fmt.Sprintf("%d / %d bytes", cubeB, fi.Size())},
		// open_ms is printed but left out of the result: across sets of
		// ten runs on a shared 2-core host its quartiles lay up to 27% of
		// the median apart. An open is 100-400 ms of single-threaded
		// manifest parsing whose CPU time alone moved by a third between
		// opens of one run.
		{name: "open_ms", unit: "ms", value: median(m.opens) * 1e3, note: fmt.Sprintf("median of %d", len(m.opens)), info: true},
		{name: "qps_c1", unit: "1/s", value: float64(m.c1Ops) / m.c1Secs, note: fmt.Sprintf("%d ops", m.c1Ops)},
		{name: "qps_c2", unit: "1/s", value: float64(m.c2Ops) / m.c2Secs, note: fmt.Sprintf("%d ops", m.c2Ops)},
	}
	// Every class's tail is printed, but only the roll-ups' enters the
	// result: on a shared 2-core host the slice and range p95 moved by up
	// to 28% between runs of one build, with the load of other tenants,
	// while the roll-ups' stayed within 17%.
	for c := 0; c < numClasses; c++ {
		for _, p := range []float64{50, 95} {
			t, err := percentile(m.lat[c], p)
			if err != nil {
				return nil, fmt.Errorf("%s latency: %w", className[c], err)
			}
			out = append(out, metric{name: fmt.Sprintf("%s_p%g_ms", className[c], p), unit: "ms", value: t.value,
				note: fmt.Sprintf("n=%d, %d beyond", t.samples, t.beyond), info: p == 95 && c != opRollup})
		}
	}
	att, failed := r.attempted.Load(), r.failed.Load()
	out = append(out, metric{name: "ok_frac", unit: "fraction", value: 1 - float64(failed)/float64(att),
		note: fmt.Sprintf("failed_frac %g = %d / %d", float64(failed)/float64(att), failed, att)})
	return out, nil
}
