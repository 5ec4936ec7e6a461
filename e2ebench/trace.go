package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"tcpsig"
	"tcpsig/internal/core"
	"tcpsig/internal/features"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/stream"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order. Metrics a workload does not exercise read 0 by construction.
var layerMetrics = []struct{ name, unit string }{
	{"pcap.next_ns_per_record", "ns"},
	{"pcap.to_capture_ns_per_record", "ns"},
	{"pcap.records_read", "count"},
	{"pcap.frames_skipped", "count"},
	{"stream.observe_ns_per_record", "ns"},
	{"stream.post_verdict_record_share", "share"},
	{"stream.feed_wait_ns_per_record", "ns"},
	{"stream.flush_ms", "ms"},
	{"stream.flows_tracked", "count"},
	{"stream.evicted_flows", "count"},
	{"stream.early_verdict_share", "share"},
	{"flowrtt.observe_ns_per_record", "ns"},
	{"flowrtt.records_to_verdict_p50", "count"},
	{"flowrtt.valid_flow_share", "share"},
	{"features.from_rtts_ns_per_flow", "ns"},
	{"dtree.predict_ns_per_flow", "ns"},
	{"core.classify_ns_per_flow", "ns"},
	{"core.degraded_verdict_share", "share"},
	{"serve.residual_ns_per_record", "ns"},
	{"serve.ndjson_bytes_per_verdict", "bytes"},
	{"testbed.run_ms_self", "ms"},
	{"testbed.run_ms_external", "ms"},
	{"testbed.valid_run_share", "share"},
	{"sim.events_per_run", "count"},
	{"sim.ns_per_event", "ns"},
	{"netem.packets_sent_per_run", "count"},
	{"netem.queue_drops_per_run", "count"},
	{"tcpsim.test_flow_retransmits", "count"},
	{"dtree.train_ms", "ms"},
	{"cpu.pcap_self_share", "share"},
	{"cpu.stream_self_share", "share"},
	{"cpu.flowrtt_self_share", "share"},
	{"cpu.core_self_share", "share"},
	{"cpu.sim_self_share", "share"},
	{"cpu.netem_self_share", "share"},
	{"cpu.tcpsim_self_share", "share"},
	{"cpu.trafficgen_self_share", "share"},
	{"cpu.runtime_self_share", "share"},
	{"cpu.main_self_share", "share"},
	{"trace.overhead_share", "share"},
	{"trace.clock_read_ns", "ns"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return "1"
}

func zeroLayerMetrics() map[string]float64 {
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = 0
	}
	return out
}

// agg aggregates one layer's per-record calls: count, total time and a
// log2 histogram of call durations.
type agg struct {
	n     int64
	total time.Duration
	hist  [40]int64 // bucket k: [2^k, 2^(k+1)) ns
}

func (a *agg) add(d time.Duration) {
	a.n++
	a.total += d
	k := 0
	for v := d; v > 1 && k < len(a.hist)-1; v >>= 1 {
		k++
	}
	a.hist[k]++
}

// nsPer is the mean call time minus clock, the cost of the clock read
// each timed interval includes.
func (a *agg) nsPer(clock float64) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total)/float64(a.n) - clock
}

// clockReadNs calibrates the cost of one time.Now call as the median gap
// between back-to-back calls.
func clockReadNs() float64 {
	xs := make([]float64, 100_000)
	for i := range xs {
		a := time.Now()
		xs[i] = float64(time.Since(a))
	}
	return median(xs)
}

// span is one traced per-flow or per-run call. parent links a span to the
// span that caused it (0 = none).
type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since the traced pass began
}

// writeSpans writes the spans kept in memory as CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayers writes per-layer call aggregates: count, total time and
// the log2 histogram of call durations (raw, clock reads included).
func writeLayers(path string, layers map[string]*agg) error {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString("layer,count,total_ns,histogram_log2_ns\n")
	for _, n := range names {
		a := layers[n]
		last := 0
		for k, c := range a.hist {
			if c > 0 {
				last = k
			}
		}
		hist := make([]string, last+1)
		for k := range hist {
			hist[k] = fmt.Sprint(a.hist[k])
		}
		fmt.Fprintf(&b, "%s,%d,%d,%s\n", n, a.n, a.total, strings.Join(hist, " "))
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// serveTable builds a flow table with serve's configuration.
func serveTable(clf *core.Classifier, emit func(stream.FlowResult)) *stream.Table {
	return stream.NewTable(stream.Config{
		Classifier: clf,
		MaxFlows:   1_000_000,
		Shards:     8,
		Emit:       emit,
		Recycle:    true,
	})
}

// ingestPass feeds in.pcap through pcap.Reader.Next, RecordToCapture and
// Table.Observe, then Flush, as serve does minus the pump. With traced
// set each call is timed and per-record bookkeeping is kept.
type ingestPass struct {
	wall                       time.Duration
	next, conv, observe        agg
	records, postVerdict       int64
	verdicts, early, degraded  int64
	flowsTracked, evictedFlows float64
}

func runIngest(in *input, clf *core.Classifier, traced bool) (*ingestPass, error) {
	p := &ingestPass{}
	decided := make(map[netem.FlowKey]bool)
	table := serveTable(clf, func(res stream.FlowResult) {
		p.verdicts++
		if res.Early {
			p.early++
		}
		if res.Verdict.Reason != core.ReasonNone {
			p.degraded++
		}
		if traced {
			decided[res.Flow] = true
		}
	})
	rd := pcap.NewReader(bytes.NewReader(in.pcap))
	start := time.Now()
	for {
		t0 := time.Now()
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		p.records++
		if !traced {
			cr := pcap.RecordToCapture(rec, serverIP)
			table.Observe(&cr)
			continue
		}
		t1 := time.Now()
		cr := pcap.RecordToCapture(rec, serverIP)
		t2 := time.Now()
		key := cr.Pkt.Flow
		if cr.Dir == netem.DirIn {
			key = key.Reverse()
		}
		if decided[key] {
			p.postVerdict++
		}
		t3 := time.Now()
		table.Observe(&cr)
		t4 := time.Now()
		p.next.add(t1.Sub(t0))
		p.conv.add(t2.Sub(t1))
		p.observe.add(t4.Sub(t3))
	}
	table.Flush()
	p.wall = time.Since(start)
	for _, m := range table.Metrics() {
		switch m.Name {
		case "stream.flows_tracked":
			p.flowsTracked = m.Value
		case "stream.evicted_flows":
			p.evictedFlows = m.Value
		}
	}
	return p, nil
}

// feedPass feeds the converted records through stream.Pump.Feed as
// serve does and times how long each Feed blocks.
func feedPass(in *input, clf *core.Classifier) (agg, time.Duration, error) {
	var feed agg
	table := serveTable(clf, func(stream.FlowResult) {})
	pump := stream.NewPump(table, 0)
	rd := pcap.NewReader(bytes.NewReader(in.pcap))
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			pump.Close()
			return feed, 0, err
		}
		cr := pcap.RecordToCapture(rec, serverIP)
		t0 := time.Now()
		pump.Feed(cr)
		feed.add(time.Since(t0))
	}
	pump.Close()
	f0 := time.Now()
	table.Flush()
	return feed, time.Since(f0), nil
}

// flowPass replays every flow on its own through flowrtt.Tracker,
// features.FromRTTs, the tree's prediction and core ClassifyInfo, keeping
// one span per call with the flow's span as cause.
type flowPassResult struct {
	observe                     agg
	fromRTTs, predict, classify agg
	toVerdict                   []float64
	valid, flows                int
	spans                       []span
}

func flowPass(in *input, clf *core.Classifier) *flowPassResult {
	r := &flowPassResult{flows: len(in.flows)}
	start := time.Now()
	id := int64(0)
	for i := range in.flows {
		f := &in.flows[i]
		id++
		flowID := id
		fs := time.Since(start)
		tr := flowrtt.NewTracker(dataKey(f))
		recs := in.tpls[f.tpl].recs
		decided := false
		for j := range recs {
			cr := captureRecord(in.tpls, f, j)
			t0 := time.Now()
			done := tr.Observe(&cr)
			r.observe.add(time.Since(t0))
			if done {
				r.toVerdict = append(r.toVerdict, float64(j+1))
				decided = true
				break
			}
		}
		info := tr.Peek()
		if !decided {
			info, _ = tr.Finish()
		}
		id++
		r.spans = append(r.spans, span{id: id, parent: flowID, name: "flowrtt.tracker", start: fs, end: time.Since(start)})
		if info == nil { // Finish found no data: nothing to classify
			r.spans = append(r.spans, span{id: flowID, name: "flow", start: fs, end: time.Since(start)})
			continue
		}
		if info.Valid() {
			r.valid++
		}
		if ss := info.SlowStartRTTs(); len(ss) >= flowrtt.MinSlowStartSamples {
			t0 := time.Now()
			v, err := features.FromRTTs(ss, flowrtt.MinSlowStartSamples)
			d := time.Since(t0)
			r.fromRTTs.add(d)
			id++
			r.spans = append(r.spans, span{id: id, parent: flowID, name: "features.from_rtts", start: t0.Sub(start), end: t0.Sub(start) + d})
			if err == nil {
				t0 = time.Now()
				clf.Tree.PredictTrace(v.Values())
				d = time.Since(t0)
				r.predict.add(d)
				id++
				r.spans = append(r.spans, span{id: id, parent: flowID, name: "dtree.predict", start: t0.Sub(start), end: t0.Sub(start) + d})
			}
		}
		t0 := time.Now()
		clf.ClassifyInfo(info)
		d := time.Since(t0)
		r.classify.add(d)
		id++
		r.spans = append(r.spans, span{id: id, parent: flowID, name: "core.classify_info", start: t0.Sub(start), end: t0.Sub(start) + d})
		r.spans = append(r.spans, span{id: flowID, name: "flow", start: fs, end: time.Since(start)})
	}
	return r
}

// traceServe is the traced serve run. It first times a few untraced
// serve invocations for the end-to-end reference, then drives the same
// capture in-process: an untraced ingest pass, a traced one (under a CPU
// profile, together with the pump and per-flow passes), and reports the
// per-layer metrics, the tracing overhead and the serve residual.
func traceServe(ctx context.Context, e *env, workload string, seed int64, in *input, o *oracle) (*result, error) {
	st, err := timeServe(ctx, e, in, o, 0)
	if err != nil {
		return nil, err
	}
	e2eNs := median(st.walls)*1e9 - st.setupS*1e9
	e2eNs /= float64(in.records)

	clf, err := tcpsig.LoadFile(e.model)
	if err != nil {
		return nil, err
	}
	untraced, err := runIngest(in, clf.Core(), false)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := runIngest(in, clf.Core(), true)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	feed, flushD, err := feedPass(in, clf.Core())
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	fp := flowPass(in, clf.Core())
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	out := filepath.Join(e.work, "..", fmt.Sprintf("%s-%d", workload, seed))
	if err := writeSpans(out+".spans.csv", fp.spans); err != nil {
		return nil, err
	}
	err = writeLayers(out+".layers.csv", map[string]*agg{
		"pcap.next": &traced.next, "pcap.to_capture": &traced.conv, "stream.observe": &traced.observe,
		"stream.feed": &feed, "flowrtt.observe": &fp.observe, "features.from_rtts": &fp.fromRTTs,
		"dtree.predict": &fp.predict, "core.classify_info": &fp.classify,
	})
	if err != nil {
		return nil, err
	}

	vals := zeroLayerMetrics()
	for k, v := range shares {
		vals[k] = v
	}
	clock := clockReadNs()
	vals["trace.clock_read_ns"] = clock
	recs := float64(traced.records)
	sort.Float64s(fp.toVerdict)
	vals["pcap.next_ns_per_record"] = traced.next.nsPer(clock)
	vals["pcap.to_capture_ns_per_record"] = traced.conv.nsPer(clock)
	vals["pcap.records_read"] = recs
	vals["pcap.frames_skipped"] = float64(in.records) - recs
	vals["stream.observe_ns_per_record"] = traced.observe.nsPer(clock)
	vals["stream.post_verdict_record_share"] = float64(traced.postVerdict) / recs
	vals["stream.feed_wait_ns_per_record"] = feed.nsPer(clock)
	vals["stream.flush_ms"] = float64(flushD) / 1e6
	vals["stream.flows_tracked"] = traced.flowsTracked
	vals["stream.evicted_flows"] = traced.evictedFlows
	vals["stream.early_verdict_share"] = float64(traced.early) / float64(traced.verdicts)
	vals["flowrtt.observe_ns_per_record"] = fp.observe.nsPer(clock)
	vals["flowrtt.records_to_verdict_p50"] = percentile(fp.toVerdict, 0.5)
	vals["flowrtt.valid_flow_share"] = float64(fp.valid) / float64(fp.flows)
	vals["features.from_rtts_ns_per_flow"] = fp.fromRTTs.nsPer(clock)
	vals["dtree.predict_ns_per_flow"] = fp.predict.nsPer(clock)
	vals["core.classify_ns_per_flow"] = fp.classify.nsPer(clock)
	vals["core.degraded_verdict_share"] = float64(traced.degraded) / float64(traced.verdicts)
	// The residual can be negative: serve's reader and drain goroutines
	// overlap decode with Observe, which the serial traced pass cannot.
	vals["serve.residual_ns_per_record"] = e2eNs -
		(traced.next.nsPer(clock) + traced.conv.nsPer(clock) + traced.observe.nsPer(clock))
	vals["serve.ndjson_bytes_per_verdict"] = float64(st.ndjsonB) / float64(st.verdicts)
	vals["trace.overhead_share"] = float64(traced.wall-untraced.wall) / float64(untraced.wall)

	fmt.Printf("trace end-to-end %.1f ns/record over %d invocations; in-process untraced %.1f ns/record, traced %.1f ns/record\n",
		e2eNs, len(st.walls), float64(untraced.wall)/recs, float64(traced.wall)/recs)
	fmt.Println("trace serve.residual_ns_per_record = end-to-end − (pcap.next + pcap.to_capture + stream.observe);" +
		" negative when serve's reader and drain goroutines overlap work the serial traced pass does in turn")
	return &result{Correct: true, Attempted: st.attempted, Failed: st.failed, Metrics: withUnits(vals)}, nil
}

// cpuShares returns, per reported package, the share of CPU profile
// samples whose leaf frame lies in that package.
func cpuShares(profile []byte) (map[string]float64, error) {
	leaves, err := profileLeaves(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	total := 0.0
	for fn, n := range leaves {
		total += n
		if pkg := funcPackage(fn); pkg != "" {
			out["cpu."+pkg+"_self_share"] += n
		}
	}
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.name, "cpu.") {
			if total > 0 {
				out[m.name] /= total
			} else {
				out[m.name] = 0
			}
		}
	}
	for k := range out {
		if layerUnit(k) == "1" {
			delete(out, k) // a package that is not reported
		}
	}
	return out, nil
}

// funcPackage maps a symbol such as "tcpsig/internal/pcap.(*Reader).Next"
// to its package's last path element ("pcap").
func funcPackage(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}
