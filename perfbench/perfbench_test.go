package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
)

// smokeScale shrinks every dataset so a whole run takes about a second.
const smokeScale = 0.02

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 199)
	for i := range samples {
		samples[i] = float64(len(samples) - i) // unsorted on purpose
	}
	if _, err := percentile(samples, 95); err == nil {
		t.Fatal("p95 of 199 samples has only 9 beyond it and must be refused")
	}
	samples = append(samples, 200)
	got, err := percentile(samples, 95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if got.value != 190 || got.samples != 200 || got.beyond != 10 {
		t.Fatalf("p95 of 1..200 = %+v, want value 190 with 200 samples, 10 beyond", got)
	}
	p50, err := percentile(samples, 50)
	if err != nil || p50.value != 100 || p50.beyond != 100 {
		t.Fatalf("p50 of 1..200 = %+v, %v; want 100 with 100 beyond", p50, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// tinyCube builds a small APB-1 cube and returns an engine over it with
// the oracle of its fact table.
func tinyCube(t *testing.T) (*query.Engine, *oracle) {
	t.Helper()
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.bin")
	_, hier, err := gen.APBToFile(fact, 0.0002, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset{factPath: fact, hier: hier}
	if _, err := core.Build(buildOptions(ds, filepath.Join(dir, "cube"), 0)); err != nil {
		t.Fatal(err)
	}
	table, err := relation.ReadFactFile(fact)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := query.Open(filepath.Join(dir, "cube"), query.Options{CacheFraction: 1, PinAggregates: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, newOracle(table, hier, lattice.NewEnum(hier))
}

func TestOracleAgreesWithCubeAndCatchesWrongAnswers(t *testing.T) {
	eng, orc := tinyCube(t)
	ops := makeOps(orc.hier, orc.enum, 5)
	if err := orc.expect(ops); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		got, err := runOp(eng, &ops[i])
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != ops[i].want {
			t.Fatalf("op %d (%s of %s): cube and oracle disagree", i, className[ops[i].class], orc.enum.Name(ops[i].node))
		}
	}

	// Every way of getting one row wrong must change the digest.
	var node lattice.NodeID
	var rows []query.Row
	for _, o := range ops {
		if o.class == opRollup && o.want.rows >= 2 {
			node = o.node
			break
		}
	}
	if err := eng.NodeQuery(node, func(r query.Row) error {
		rows = append(rows, query.Row{Dims: append([]int32(nil), r.Dims...), Aggrs: append([]float64(nil), r.Aggrs...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want, err := orc.answer(node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	digestOf := func(rs []query.Row) digest {
		var d digest
		for _, r := range rs {
			d.add(r.Dims, r.Aggrs)
		}
		return d
	}
	if digestOf(rows) != want {
		t.Fatal("untampered answer must match the oracle")
	}
	clone := func() []query.Row {
		out := make([]query.Row, len(rows))
		for i, r := range rows {
			out[i] = query.Row{Dims: append([]int32(nil), r.Dims...), Aggrs: append([]float64(nil), r.Aggrs...)}
		}
		return out
	}
	wrongSum := clone()
	wrongSum[0].Aggrs[0]++
	wrongCode := clone()
	wrongCode[0].Dims[0] ^= 1
	swapped := clone() // one row missing, another duplicated
	swapped[0] = swapped[1]
	for name, rs := range map[string][]query.Row{"wrong sum": wrongSum, "wrong code": wrongCode, "missing+duplicate": swapped, "missing": rows[1:]} {
		if digestOf(rs) == want {
			t.Errorf("%s: oracle accepted a wrong answer", name)
		}
	}
}

func TestRunnerCountsWrongAnswers(t *testing.T) {
	eng, orc := tinyCube(t)
	r := &runner{w: workloads[0], enum: orc.enum, orc: orc, ops: makeOps(orc.hier, orc.enum, 9)}
	if err := orc.expect(r.ops); err != nil {
		t.Fatal(err)
	}
	r.ops[7].want.sum++ // one deliberately wrong expectation
	if err := r.pass(eng, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := r.attempted.Load(), int64(len(r.ops)); got != want {
		t.Fatalf("attempted = %d, want %d", got, want)
	}
	if got := r.failed.Load(); got != 1 {
		t.Fatalf("failed = %d, want exactly the tampered op", got)
	}
}

func TestSecondSeedKeepsTheMix(t *testing.T) {
	hier := gen.APBSchema()
	enum := lattice.NewEnum(hier)
	mix := func(seed int64) (counts [numClasses]int, rollups []lattice.NodeID) {
		for _, o := range makeOps(hier, enum, seed) {
			counts[o.class]++
			if o.class == opRollup {
				rollups = append(rollups, o.node)
			}
		}
		sort.Slice(rollups, func(i, j int) bool { return rollups[i] < rollups[j] })
		return counts, rollups
	}
	c1, r1 := mix(1)
	c2, r2 := mix(2)
	if c1 != c2 {
		t.Fatalf("class counts differ between seeds: %v vs %v", c1, c2)
	}
	total := c1[opSlice] + c1[opRange] + c1[opRollup]
	if 10*c1[opSlice] != 4*total || 10*c1[opRange] != 3*total {
		t.Fatalf("mix %v is not 40/30/30", c1)
	}
	if c1[opRollup] < 20*minBeyond {
		t.Fatalf("%d roll-ups per pass cannot carry a p95 with %d beyond", c1[opRollup], minBeyond)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("roll-up node multiset differs between seeds")
		}
	}
	a, b := makeOps(hier, enum, 1), makeOps(hier, enum, 2)
	same := true
	for i := range a {
		if a[i].class != b[i].class || a[i].node != b[i].node || a[i].pred != b[i].pred {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds produced the same op list")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Layer: "core", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "storage", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "storage", Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: -1, Layer: "query", Start: 100, End: 130},
	}}
	self := tr.selfTimes()
	if got := self["core"] * 1e9; got < 49.5 || got > 50.5 {
		t.Errorf("core self time = %vns, want 50", got)
	}
	if got := self["storage"] * 1e9; got < 59.5 || got > 60.5 {
		t.Errorf("storage self time = %vns, want 60", got)
	}
	if got := self["query"] * 1e9; got < 29.5 || got > 30.5 {
		t.Errorf("query self time = %vns, want 30", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	base := t.TempDir()
	for _, ws := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, seed := range []int64{1, 2} {
				if seed == 2 && trace {
					continue
				}
				w, err := findWorkload(ws.Name)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				res, err := runWorkload(w, config{seed: seed, seconds: 0.01, trace: trace, scale: smokeScale}, base, &out)
				if err != nil {
					t.Fatalf("%s trace=%v seed=%d: %v\n%s", ws.Name, trace, seed, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%v seed=%d: %d of %d answers wrong", ws.Name, trace, seed, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", ws.Name, trace, len(res.Metrics), len(want))
				}
				if !trace {
					for _, name := range []string{"slice_p95_ms", "range_p95_ms"} {
						if _, ok := res.Metrics[name]; ok || !strings.Contains(out.String(), name) {
							t.Errorf("%s: %s must be printed but left out of the result line", ws.Name, name)
						}
					}
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", ws.Name, trace, m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name) {
						t.Errorf("%s trace=%v: metric %s not printed", ws.Name, trace, m.Name)
					}
				}
			}
		}
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "traces" {
			t.Errorf("run left %s behind", e.Name())
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "apb-build", "--seconds", "0"},
		{"--workload", "apb-build", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, out.String())
		}
	}
}
