// Command perfbench is the repository's end-to-end benchmark: it generates
// a workload's database and open-loop traffic from a seed, replays the trace
// through the public executors (repro.ReplayTrace on the shared-scan or the
// sharded path), checks every answer against a full-scan oracle, and prints
// the workload's metrics by name with their units.
//
//	perfbench --workload scan-ta --seed 42 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced replays. --trace 1
// rebuilds the same stack in this package with a timing shim at every layer
// boundary, drives each request itself, and reports the per-layer metrics;
// it also checks that the traced stack answers exactly like the untraced
// one. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A run that sees a wrong
// answer or a failed request exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is one run's result: the contract's final JSON line plus the
// human-readable lines printed before it.
type report struct {
	attempted, failed int
	names             []string
	metrics           map[string]metric
	info              []string // sample counts and run facts
	notes             []string // failures, printed to stderr
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scan-ta, sharded-nra or stack-mixed")
	seed := fs.Uint64("seed", 42, "seed for the database, the traffic and the fault schedule")
	secs := fs.Int("seconds", 30, "time budget; a run replays one round per 5 seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced stack and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the stored result and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := hostRecord()
	budget := time.Duration(*secs) * time.Second
	var rp *report
	if *trace == 1 {
		rp, err = runTraced(w, *seed, budget, *out)
	} else {
		rp, err = runUntraced(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rp.notes {
		fmt.Fprintln(stderr, "perfbench: FAIL", n)
	}
	correct := rp.failed == 0
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "workload: %s seed=%d trace=%d workers=%d\n", w.name, *seed, *trace, workers)
	for _, line := range rp.info {
		fmt.Fprintln(stdout, "  "+line)
	}
	for _, n := range rp.names {
		m := rp.metrics[n]
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rp.attempted, rp.failed, rp.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := store(*out, w.name, *seed, *trace, host, line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// store keeps the result with its host record, one file per workload,
// seed and mode.
func store(dir, workload string, seed uint64, trace int, host hostInfo, result []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Trace    int             `json:"trace"`
		Host     hostInfo        `json:"host"`
		Result   json.RawMessage `json:"result"`
	}{workload, seed, trace, host, result}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, trace))
	return os.WriteFile(path, append(rec, '\n'), 0o644)
}
