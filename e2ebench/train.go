package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tcpsig"
	"tcpsig/internal/core"
	"tcpsig/internal/obs"
	"tcpsig/internal/testbed"
)

// quickRunsPerConfig is the quick grid's default repetition count
// (tcpsig.TestbedExamples with Quick set).
const quickRunsPerConfig = 4

// quickSweep is the sweep `ccsig train -quick -seed seed` runs: one
// access configuration, two buffers, both scenarios.
func quickSweep(seed int64, runs int) testbed.SweepOptions {
	return testbed.SweepOptions{
		Rates:         []float64{20},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{20 * time.Millisecond, 100 * time.Millisecond},
		Duration:      5 * time.Second,
		RunsPerConfig: runs,
		Seed:          seed,
	}
}

// quickPlan expands quickSweep into its per-run configurations in the
// order and with the seeds testbed.Sweep assigns (the grid nests rate,
// loss, latency, buffer, scenario, repetition; run i gets seed+1+i).
func quickPlan(seed int64, runs int) []testbed.Config {
	sw := quickSweep(seed, runs)
	var out []testbed.Config
	for _, buf := range sw.Buffers {
		for _, cong := range []int{0, 100} {
			for r := 0; r < runs; r++ {
				cfg := testbed.Config{
					Access: testbed.AccessParams{
						RateMbps: sw.Rates[0], Loss: sw.Losses[0], Latency: sw.Latencies[0],
						Jitter: 2 * time.Millisecond, Buffer: buf,
					},
					CongFlows:  cong,
					TransCross: true,
					Duration:   sw.Duration,
					Seed:       seed + 1 + int64(len(out)),
				}
				if cong > 0 {
					cfg.WarmUp = 4 * time.Second
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

func (e *env) trainRuns() int {
	if e.runs > 0 {
		return e.runs
	}
	return quickRunsPerConfig
}

// timeTrainWorkload runs `ccsig train -quick` once per derived seed
// (seed*1000+k, k = 0, 1, ...) until the next repetition would overrun
// seconds, with at least two seeds, then repeats the first seed. How long
// an emulated sweep takes depends on its seed, so averaging over several
// keeps the figures steady. A repetition fails when it exits non-zero or
// when the repeat's model or training CSV differs from the first run's.
func timeTrainWorkload(ctx context.Context, e *env, seed int64, seconds float64) (*result, map[string]any, error) {
	runsPerRep := 4 * e.trainRuns()
	sizes := map[string]any{"runs_per_repetition": runsPerRep}
	setupModel := filepath.Join(e.work, "setup-model.json")
	setupS, err := measureSetup(setupRuns, func() (*procRun, error) {
		return runProc(ctx, e.ccsig, []string{"train", "-data", filepath.Join(e.fixtures, trainCSVFile), "-o", setupModel}, nil)
	})
	if err != nil {
		return nil, sizes, err
	}
	var (
		walls, rss, runsPerS []float64
		doneP50, doneP99     []float64 // per repetition, ms
		examples, fail, nLat int
		seeds                []int64
		first                [2][]byte // model and CSV of the first seed
	)
	rep := func(k int, s int64) error {
		model := filepath.Join(e.work, fmt.Sprintf("model-%d.json", k))
		csv := filepath.Join(e.work, fmt.Sprintf("train-%d.csv", k))
		args := []string{"train", "-quick", "-seed", strconv.FormatInt(s, 10),
			"-export-data", csv, "-o", model, "-v"}
		if e.runs > 0 {
			args = append(args, "-runs", strconv.Itoa(e.runs))
		}
		seeds = append(seeds, s)
		p, err := runProc(ctx, e.ccsig, args, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: train repetition failed:", err)
			fail++
			return nil
		}
		mb, merr := os.ReadFile(model)
		cb, cerr := os.ReadFile(csv)
		if merr != nil || cerr != nil {
			fail++
			return nil
		}
		switch {
		case k == 0:
			first = [2][]byte{mb, cb}
		case s == seeds[0] && (!bytes.Equal(mb, first[0]) || !bytes.Equal(cb, first[1])):
			fmt.Fprintf(os.Stderr, "e2ebench: train at seed %d is not byte-identical to its first run\n", s)
			fail++
			return nil
		}
		ticks := progressTicks(p)
		if len(ticks) != runsPerRep {
			return fmt.Errorf("train reported %d progress ticks, want %d", len(ticks), runsPerRep)
		}
		done := make([]float64, len(ticks))
		for i, t := range ticks {
			done[i] = float64(t) / 1e6
		}
		doneP50 = append(doneP50, percentile(done, 0.50))
		doneP99 = append(doneP99, percentile(done, 0.99))
		nLat += len(done)
		examples += bytes.Count(cb, []byte("\n")) - 1 // minus the header
		walls = append(walls, p.wall.Seconds())
		runsPerS = append(runsPerS, float64(runsPerRep)/p.wall.Seconds())
		rss = append(rss, float64(p.maxRSSKB)/1024)
		fmt.Fprintf(os.Stderr, "train repetition %d (seed %d): wall %.3fs\n", k, s, p.wall.Seconds())
		return nil
	}
	start := time.Now()
	for k := 0; ; k++ {
		if err := rep(k, seed*1000+int64(k)); err != nil {
			return nil, sizes, err
		}
		last := 0.0
		if len(walls) > 0 {
			last = walls[len(walls)-1]
		}
		if k >= 1 && time.Since(start).Seconds()+last >= seconds {
			break
		}
	}
	if err := rep(len(seeds), seeds[0]); err != nil {
		return nil, sizes, err
	}
	if len(walls) == 0 {
		return nil, sizes, fmt.Errorf("every train repetition failed")
	}
	sizes["seeds"] = seeds
	sizes["examples"] = examples
	sizes["run_latency_samples"] = nLat
	return &result{
		Correct:   true,
		Attempted: len(seeds),
		Failed:    fail,
		Metrics: withUnits(map[string]float64{
			// Each emulated run yields one progress record and one captured
			// test flow. The example yield varies with the seed and is
			// reported in the provenance instead.
			"records_per_s":          median(runsPerS),
			"flows_per_s":            median(runsPerS),
			"verdict_latency_p50_ms": median(doneP50),
			"verdict_latency_p99_ms": median(doneP99),
			"runs_per_s":             median(runsPerS),
			"setup_s":                setupS,
			"peak_rss_mb":            median(rss),
		}),
	}, sizes, nil
}

// progressTicks returns when each "done/total" progress report of
// `ccsig train -v` was read.
func progressTicks(p *procRun) []time.Duration {
	var out []time.Duration
	start, k := 0, 0 // tickAt has one entry per terminator
	for i, c := range p.stderr {
		if c != '\r' && c != '\n' {
			continue
		}
		piece := string(p.stderr[start:i])
		start = i + 1
		at := p.tickAt[k]
		k++
		if d, t, ok := strings.Cut(piece, "/"); ok && isDigits(d) && isDigits(t) {
			out = append(out, at)
		}
	}
	return out
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// traceTrain is the traced train-quick run: the quick sweep once through
// testbed.Sweep untimed per run, then once run by run through
// testbed.Run with a metrics sink and a CPU profile, then the tree fit.
func traceTrain(e *env, seed int64) (*result, map[string]any, error) {
	runs := e.trainRuns()
	sizes := map[string]any{"runs": 4 * runs}

	t0 := time.Now()
	swept := testbed.Sweep(quickSweep(seed, runs))
	untraced := time.Since(t0)
	want := datasetCSV(testbed.Dataset(swept, 0.8))

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, sizes, err
	}
	var (
		results                           []*testbed.Result
		selfMS, extMS                     []float64
		events, sent, drops, retx, traced float64
		spans                             []span
	)
	plan := quickPlan(seed, runs)
	tr0 := time.Now()
	for i, cfg := range plan {
		reg := obs.NewRegistry()
		cfg.Obs = &obs.Sink{Metrics: reg}
		s := time.Now()
		res, err := testbed.Run(cfg)
		d := time.Since(s)
		spans = append(spans, span{id: int64(i + 1), name: "testbed.run", start: s.Sub(tr0), end: s.Sub(tr0) + d})
		if cfg.CongFlows > 0 {
			extMS = append(extMS, float64(d)/1e6)
		} else {
			selfMS = append(selfMS, float64(d)/1e6)
		}
		if err == nil {
			results = append(results, res)
		}
		for _, m := range reg.Snapshot() {
			switch {
			case m.Name == "sim.events.executed":
				events += m.Value
			case strings.HasPrefix(m.Name, "netem.link.") && strings.HasSuffix(m.Name, ".sent"):
				sent += m.Value
			case strings.HasPrefix(m.Name, "netem.link.") && strings.HasSuffix(m.Name, ".drops.queue"):
				drops += m.Value
			case m.Name == "tcpsim.test_flow.retransmits":
				retx += m.Value
			}
		}
	}
	traced = float64(time.Since(tr0))
	ds := testbed.Dataset(results, 0.8)
	s := time.Now()
	_, trainErr := core.Train(ds, core.TrainOptions{MinLeaf: 2, Threshold: 0.8})
	trainMS := float64(time.Since(s)) / 1e6
	pprof.StopCPUProfile()
	if trainErr != nil {
		return nil, sizes, trainErr
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, sizes, err
	}
	if err := writeSpans(filepath.Join(e.work, "..", fmt.Sprintf("train-quick-%d.spans.csv", seed)), spans); err != nil {
		return nil, sizes, err
	}

	failed := 0
	if !bytes.Equal(datasetCSV(ds), want) {
		failed = 1 // the traced pass must reproduce the sweep's dataset
	}
	n := float64(len(plan))
	vals := zeroLayerMetrics()
	for k, v := range shares {
		vals[k] = v
	}
	vals["testbed.run_ms_self"] = median(selfMS)
	vals["testbed.run_ms_external"] = median(extMS)
	vals["testbed.valid_run_share"] = float64(len(results)) / n
	vals["sim.events_per_run"] = events / n
	vals["sim.ns_per_event"] = traced / events
	vals["netem.packets_sent_per_run"] = sent / n
	vals["netem.queue_drops_per_run"] = drops / n
	vals["tcpsim.test_flow_retransmits"] = retx / n
	vals["dtree.train_ms"] = trainMS
	vals["trace.overhead_share"] = (traced - float64(untraced)) / float64(untraced)
	return &result{Correct: true, Attempted: 2, Failed: failed, Metrics: withUnits(vals)}, sizes, nil
}

func datasetCSV(ds []tcpsig.Example) []byte {
	var b bytes.Buffer
	if err := tcpsig.WriteExamplesCSV(&b, ds); err != nil {
		return nil
	}
	return b.Bytes()
}
