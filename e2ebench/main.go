// Command e2ebench is the repository's end-to-end benchmark. It runs the
// real ccsig binary as a subprocess on generated inputs, times it from
// outside, and checks every output against an oracle; with -trace 1 it
// drives the same inputs in-process through each layer's public
// functions and reports per-layer numbers instead. See README.md.
//
// Usage (from the repository root, after building ccsig):
//
//	e2ebench -ccsig PATH --workload NAME --seed N --seconds S --trace 0|1
//	e2ebench -regen-fixtures DIR
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// setupRuns is how many set-up invocations each run makes; setup_s
	// is their median.
	setupRuns = 25

	// runDeadline bounds one run; every run must end within 180 s.
	runDeadline = 170 * time.Second

	// Paths relative to the repository root, where the benchmark runs.
	fixturesDir = "e2ebench/fixtures"
	workDir     = ".bench_build/work" // per-run scratch; spans and layer files stay here
)

// env is what every workload needs: the binary under test and where the
// fixtures and scratch files live.
type env struct {
	ccsig    string  // ccsig binary
	fixtures string  // frozen fixtures directory
	model    string  // fixtures/model.json
	work     string  // per-run scratch directory
	scale    float64 // serve flow-count multiplier; tests shrink the workloads
	runs     int     // train: runs per configuration (0 = the quick default)
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"records_per_s":          "1/s",
	"flows_per_s":            "1/s",
	"verdict_latency_p50_ms": "ms",
	"verdict_latency_p99_ms": "ms",
	"runs_per_s":             "1/s",
	"setup_s":                "s",
	"peak_rss_mb":            "MB",
}

var workloads = []string{"serve-long-flows", "serve-short-flows", "train-quick"}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	ccsig := flag.String("ccsig", "", "ccsig binary under test")
	regen := flag.String("regen-fixtures", "", "rewrite the frozen fixtures into this directory and exit")
	flag.Parse()

	if *regen != "" {
		if err := regenFixtures(*regen); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloads, *workload) {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", ")))
	}
	if *ccsig == "" {
		fatal(fmt.Errorf("-ccsig is required"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d-%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{
		ccsig:    *ccsig,
		fixtures: fixturesDir,
		model:    filepath.Join(fixturesDir, modelFile),
		work:     runDir,
		scale:    1,
	}
	// Subprocesses still running at the deadline are killed, so a hung
	// program fails the run instead of outliving it.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	res, sizes, err := runWorkload(ctx, e, *workload, *seed, *seconds, *trace == 1)
	cancel()
	os.RemoveAll(runDir)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, res, provenance(*workload, *seed, *trace == 1, sizes)); err != nil {
		fatal(err)
	}
}

// report prints the provenance, every metric by name with its unit, the
// oracle's verdict, and last the result as one JSON line.
func report(w io.Writer, res *result, prov map[string]any) error {
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "oracle correct=%t attempted=%d failed=%d failed_share=%.6g\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// runWorkload dispatches one run and returns its result and input sizes.
func runWorkload(ctx context.Context, e *env, workload string, seed int64, seconds float64, traced bool) (*result, map[string]any, error) {
	if workload == "train-quick" {
		if traced {
			return traceTrain(e, seed)
		}
		return timeTrainWorkload(ctx, e, seed, seconds)
	}
	tpls, err := readTemplates(e.fixtures)
	if err != nil {
		return nil, nil, err
	}
	sh := shapes[workload]
	sh.flows = max(1, int(math.Round(float64(sh.flows)*e.scale)))
	in := buildCapture(tpls, sh, seed)
	sizes := map[string]any{"flows": len(in.flows), "records": in.records, "pcap_bytes": len(in.pcap)}
	o, err := buildOracle(ctx, e.ccsig, e.model, e.work, tpls)
	if err != nil {
		return nil, sizes, err
	}
	if traced {
		res, err := traceServe(ctx, e, workload, seed, in, o)
		return res, sizes, err
	}
	st, err := timeServe(ctx, e, in, o, seconds)
	if err != nil {
		return nil, sizes, err
	}
	sizes["invocations"] = len(st.walls)
	sizes["latency_samples"] = st.latN
	sizes["flows_decided_at_end"] = st.lateFlows / len(st.walls)
	sizes["unexpected_lines"] = st.check.unexpected
	return &result{
		Correct:   true,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   withUnits(st.metrics()),
	}, sizes, nil
}

func withUnits(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for n, v := range vals {
		u, ok := units[n]
		if !ok {
			u = layerUnit(n)
		}
		out[n] = metric{Value: v, Unit: u}
	}
	return out
}

// provenance describes the machine, toolchain, code and input of a run.
func provenance(workload string, seed int64, traced bool, sizes map[string]any) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    gitRev("."),
		"sizes":      sizes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from root/.git without running git
// (which would search parent directories outside the checkout).
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(l, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}
