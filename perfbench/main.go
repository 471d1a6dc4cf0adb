// Command perfbench is the CURE benchmark. It generates a workload from
// a seed, drives the cube builder and query engine through their Go
// packages, checks every answer against a GROUP-BY oracle, and prints
// the workload's metrics, one per line, followed by one JSON result
// line:
//
//	perfbench --workload apb-build --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same calls again with a span around each call into a layer,
// reports per-layer metrics, layer self times and the tracing overhead,
// and writes the spans to traces/<workload>-seed<seed>.jsonl under
// --workdir. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: apb-build or ooc-build")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	workDir := fs.String("workdir", ".bench_build/perfbench", "directory for the run's files and span output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive, --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := runWorkload(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1}, *workDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload in a private directory under base,
// prints each metric, and returns the result line.
func runWorkload(w workload, cfg config, base string, out io.Writer) (*result, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g mode=%s\n", w.name, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(out, "why: %s\n", w.why)

	r := &runner{w: w, cfg: cfg}
	defer r.close()
	var ms []metric
	if cfg.trace {
		spans := filepath.Join(base, "traces")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		ms, err = r.traced(path)
		if err == nil {
			fmt.Fprintf(out, "spans: %s\n", path)
		}
	} else {
		ms, err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]resultValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range ms {
		line := fmt.Sprintf("%-28s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		if m.info {
			line += "  [shown only]"
		} else {
			res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "answers: %d attempted, %d failed\n", res.Attempted, res.Failed)
	return res, nil
}
