package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/pcap"
	"tcpsig/internal/testbed"
)

// accessFlags registers the shared experiment-shape flags and returns a
// builder for the corresponding testbed config.
type accessFlags struct {
	seed     *int64
	rate     *float64
	loss     *float64
	latency  *time.Duration
	buffer   *time.Duration
	duration *time.Duration
}

func (a accessFlags) config(cong int, sink *obs.Sink) testbed.Config {
	cfg := testbed.Config{
		Access: testbed.AccessParams{
			RateMbps: *a.rate,
			Loss:     *a.loss,
			Latency:  *a.latency,
			Jitter:   2 * time.Millisecond,
			Buffer:   *a.buffer,
		},
		CongFlows:  cong,
		TransCross: true,
		Duration:   *a.duration,
		Seed:       *a.seed,
		Obs:        sink,
	}
	if cong > 0 {
		// Let the congesting flows fill the interconnect before the test
		// flow starts, as the sweep does.
		cfg.WarmUp = 4 * time.Second
	}
	return cfg
}

func traceCmd(args []string) {
	fs := newFlagSet("trace", "[-seed N] [-rate Mbps] [-loss F] [-latency D] [-buffer D] [-cong N] [-duration D] [-events N] [-o trace.json] [-queue-csv f] [-cwnd-csv f] [-events-csv f] [-metrics f] [-pcap f]")
	af := accessFlags{
		seed:     fs.Int64("seed", 1, "random seed (the output is a pure function of it)"),
		rate:     fs.Float64("rate", 10, "access-link rate in Mbps"),
		loss:     fs.Float64("loss", 0, "access-link random-loss fraction"),
		latency:  fs.Duration("latency", 20*time.Millisecond, "added access-link RTT"),
		buffer:   fs.Duration("buffer", 50*time.Millisecond, "access-link buffer depth"),
		duration: fs.Duration("duration", 5*time.Second, "throughput-test length"),
	}
	cong := fs.Int("cong", 0, "TGCong external-congestion flows (0 = self-induced scenario)")
	events := fs.Int("events", obs.DefaultTracerEvents, "trace ring capacity (oldest events overwritten when full)")
	out := fs.String("o", "-", "Chrome trace-event JSON output path ('-' = stdout)")
	queueCSV := fs.String("queue-csv", "", "also write the queue-depth time series as CSV")
	cwndCSV := fs.String("cwnd-csv", "", "also write the cwnd time series as CSV")
	eventsCSV := fs.String("events-csv", "", "also write every retained event as generic CSV")
	metricsOut := fs.String("metrics", "", "also write the run's metrics snapshot as text")
	pcapOut := fs.String("pcap", "", "also write the server-side packet capture as a pcap file")
	fs.Parse(args)
	if fs.NArg() != 0 {
		badUsage(fs, fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}

	sink := &obs.Sink{Trace: obs.NewTracer(*events), Metrics: obs.NewRegistry()}
	cfg := af.config(*cong, sink)
	var capt *netem.Capture
	if *pcapOut != "" {
		cfg.Capture = func(c *netem.Capture) { capt = c }
	}
	res, err := testbed.Run(cfg)
	if err != nil {
		// The run produced no valid test flow, but the trace up to the
		// failure is still the debugging artifact the user asked for.
		fmt.Fprintf(os.Stderr, "ccsig trace: run: %v (writing the trace anyway)\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "scenario=%s slow-start=%.2f Mbps flow=%.2f Mbps events=%d dropped=%d\n",
			testbed.ClassName(res.Scenario), res.SlowStartBps/1e6, res.FlowBps/1e6,
			sink.Trace.Len(), sink.Trace.Dropped())
	}
	for _, o := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*out, sink.Trace.WriteChromeTrace},
		{*queueCSV, sink.Trace.WriteQueueDepthCSV},
		{*cwndCSV, sink.Trace.WriteCwndCSV},
		{*eventsCSV, sink.Trace.WriteCSV},
		{*metricsOut, sink.Metrics.WriteText},
	} {
		if err := writeOutput(o.path, o.write); err != nil {
			fatal(err)
		}
	}
	if *pcapOut != "" && capt != nil {
		if err := writeOutput(*pcapOut, func(w io.Writer) error {
			return pcap.NewWriter(w).WriteCapture(capt)
		}); err != nil {
			fatal(err)
		}
		// Report the data sender's address so the capture can be fed
		// straight to classify/serve -server.
		for i := range capt.Records {
			rec := &capt.Records[i]
			if rec.Dir == netem.DirOut && rec.Pkt.IsData() {
				ip := pcap.ServerIP(rec.Pkt.Flow.SrcAddr)
				fmt.Fprintf(os.Stderr, "pcap server=%s\n", pcap.FormatIPv4(ip))
				break
			}
		}
	}
}

func metricsCmd(args []string) {
	fs := newFlagSet("metrics", "[-seed N] [-rate Mbps] [-loss F] [-latency D] [-buffer D] [-cong N] [-duration D] [-scenario both|self|external] [-o out.txt]")
	af := accessFlags{
		seed:     fs.Int64("seed", 1, "random seed (the output is a pure function of it)"),
		rate:     fs.Float64("rate", 10, "access-link rate in Mbps"),
		loss:     fs.Float64("loss", 0, "access-link random-loss fraction"),
		latency:  fs.Duration("latency", 20*time.Millisecond, "added access-link RTT"),
		buffer:   fs.Duration("buffer", 50*time.Millisecond, "access-link buffer depth"),
		duration: fs.Duration("duration", 5*time.Second, "throughput-test length"),
	}
	cong := fs.Int("cong", 100, "TGCong flows for the external scenario")
	scenario := fs.String("scenario", "both", "which scenarios to run: both, self or external")
	out := fs.String("o", "-", "output path ('-' = stdout)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		badUsage(fs, fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}

	type scen struct {
		name string
		cong int
	}
	var scens []scen
	switch *scenario {
	case "both":
		scens = []scen{{"self-induced", 0}, {"external", *cong}}
	case "self":
		scens = []scen{{"self-induced", 0}}
	case "external":
		scens = []scen{{"external", *cong}}
	default:
		badUsage(fs, fmt.Sprintf("unknown -scenario %q (want both, self or external)", *scenario))
	}

	// Run every scenario first (each with its own per-run registry), then
	// emit all sections in one write.
	type section struct {
		name string
		reg  *obs.Registry
		err  error
	}
	sections := make([]section, 0, len(scens))
	for _, sc := range scens {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		_, err := testbed.Run(af.config(sc.cong, sink))
		sections = append(sections, section{sc.name, sink.Metrics, err})
	}
	err := writeOutput(*out, func(w io.Writer) error {
		for _, s := range sections {
			if _, err := fmt.Fprintf(w, "# scenario: %s (seed %d)\n", s.name, *af.seed); err != nil {
				return err
			}
			if s.err != nil {
				if _, err := fmt.Fprintf(w, "# run failed: %v\n", s.err); err != nil {
					return err
				}
				continue
			}
			if err := s.reg.WriteText(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
}

// writeOutput writes via fn to path: "-" means stdout, "" skips entirely.
// File output is staged and renamed into place, so a crash mid-write never
// leaves a torn artifact where a complete one (or nothing) should be.
func writeOutput(path string, fn func(io.Writer) error) error {
	return checkpoint.WriteFileAtomic(path, fn)
}
