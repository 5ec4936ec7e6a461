package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"tcpsig/internal/pcap"
)

func loadTemplates(t *testing.T) []template {
	t.Helper()
	tpls, err := readTemplates("fixtures")
	if err != nil {
		t.Fatal(err)
	}
	return tpls
}

func tinyShape(name string, flows int) shape {
	sh := shapes[name]
	sh.flows = flows
	return sh
}

func TestTemplatesRoundTrip(t *testing.T) {
	tpls := loadTemplates(t)
	var buf bytes.Buffer
	if err := encodeTemplates(&buf, tpls); err != nil {
		t.Fatal(err)
	}
	got, err := decodeTemplates(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tpls) {
		t.Fatalf("decoded %d templates, want %d", len(got), len(tpls))
	}
	for i := range tpls {
		if got[i].name != tpls[i].name || len(got[i].recs) != len(tpls[i].recs) {
			t.Fatalf("template %d: got %s/%d records, want %s/%d",
				i, got[i].name, len(got[i].recs), tpls[i].name, len(tpls[i].recs))
		}
		for j := range tpls[i].recs {
			if got[i].recs[j] != tpls[i].recs[j] {
				t.Fatalf("template %d record %d differs", i, j)
			}
		}
	}
}

func TestSameSeedSameInput(t *testing.T) {
	tpls := loadTemplates(t)
	for _, name := range []string{"serve-long-flows", "serve-short-flows"} {
		sh := tinyShape(name, 200)
		a := buildCapture(tpls, sh, 7)
		b := buildCapture(tpls, sh, 7)
		c := buildCapture(tpls, sh, 8)
		if !bytes.Equal(a.pcap, b.pcap) {
			t.Errorf("%s: same seed gave different captures", name)
		}
		if bytes.Equal(a.pcap, c.pcap) {
			t.Errorf("%s: different seeds gave the same capture", name)
		}
	}
}

// TestCaptureDecodes reads a generated capture back with the program's
// pcap reader: every record comes back, addresses keep all 32 bits, and
// the client addresses are spread beyond 10.0.0.0/8.
func TestCaptureDecodes(t *testing.T) {
	tpls := loadTemplates(t)
	in := buildCapture(tpls, tinyShape("serve-short-flows", 500), 3)
	recs, err := pcap.ReadAll(bytes.NewReader(in.pcap))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != in.records {
		t.Fatalf("read %d records, generated %d", len(recs), in.records)
	}
	firstOctets := map[uint32]bool{}
	for _, r := range recs {
		if r.SrcIP != serverIP && r.DstIP != serverIP {
			t.Fatalf("record between %s and %s misses the server", ipString(r.SrcIP), ipString(r.DstIP))
		}
		firstOctets[(r.SrcIP^serverIP^r.DstIP)>>24] = true
	}
	if len(firstOctets) < 50 {
		t.Errorf("client addresses span only %d first octets", len(firstOctets))
	}
}

// fakeOracle gives every template a distinct synthetic verdict.
func fakeOracle(tpls []template) *oracle {
	o := &oracle{expect: make([]verdictLine, len(tpls))}
	for i := range tpls {
		o.expect[i] = verdictLine{Class: "external", Samples: 10 + i, NormDiff: 0.1 * float64(i)}
	}
	return o
}

func linesFor(t *testing.T, in *input, o *oracle) [][]byte {
	t.Helper()
	var out [][]byte
	for i := range in.flows {
		b, err := json.Marshal(o.expected(&in.flows[i]))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestOracleFlagsBadLines(t *testing.T) {
	tpls := loadTemplates(t)
	in := buildCapture(tpls, tinyShape("serve-long-flows", 20), 1)
	o := fakeOracle(tpls)
	good := linesFor(t, in, o)

	check := func(name string, lines [][]byte, want checkResult) {
		t.Helper()
		got, err := checkLines(in, o, lines)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.missing != want.missing || got.duplicated != want.duplicated ||
			got.wrong != want.wrong || got.unexpected != want.unexpected {
			t.Errorf("%s: got missing=%d duplicated=%d wrong=%d unexpected=%d, want %d/%d/%d/%d",
				name, got.missing, got.duplicated, got.wrong, got.unexpected,
				want.missing, want.duplicated, want.wrong, want.unexpected)
		}
	}
	check("all correct", good, checkResult{})

	check("missing", append([][]byte{}, good[1:]...), checkResult{missing: 1})

	dup := append(append([][]byte{}, good...), good[3])
	check("duplicated", dup, checkResult{duplicated: 1})

	// An address reported with its first octet lost, as a 24-bit flow key
	// would render it: the flow's own line is missing and a stray appears.
	var v verdictLine
	if err := json.Unmarshal(good[5], &v); err != nil {
		t.Fatal(err)
	}
	v.DstIP = "0" + v.DstIP[strings.Index(v.DstIP, "."):]
	bad, _ := json.Marshal(v)
	wrongAddr := append([][]byte{}, good...)
	wrongAddr[5] = bad
	check("wrong address", wrongAddr, checkResult{missing: 1, unexpected: 1})

	if err := json.Unmarshal(good[7], &v); err != nil {
		t.Fatal(err)
	}
	v.Class = "self-induced"
	bad, _ = json.Marshal(v)
	wrongClass := append([][]byte{}, good...)
	wrongClass[7] = bad
	check("wrong class", wrongClass, checkResult{wrong: 1})
}

// spin burns CPU in its own frame for about d, reading the clock only
// once per million iterations.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

func TestProfileLeaves(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaves, err := profileLeaves(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total, inSpin := 0.0, 0.0
	for fn, n := range leaves {
		total += n
		if strings.HasSuffix(fn, ".spin") {
			inSpin += n
		}
	}
	if total == 0 || inSpin/total < 0.5 {
		t.Errorf("spin holds %v of %v samples; leaves: %v", inSpin, total, leaves)
	}
	if got := funcPackage("tcpsig/internal/pcap.(*Reader).Next"); got != "pcap" {
		t.Errorf("funcPackage = %q, want pcap", got)
	}
	if got := funcPackage("runtime.mallocgc"); got != "runtime" {
		t.Errorf("funcPackage = %q, want runtime", got)
	}
}

// TestSmoke runs every workload at a tiny scale, timed and traced, with a
// freshly built ccsig, and checks that every metric is printed with its
// unit and that the seed code's outputs pass the oracle where expected.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ccsig and runs emulations")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ccsig")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ccsig")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ccsig: %v\n%s", err, out)
	}
	var e2eNames, layerNames []string
	for n := range units {
		e2eNames = append(e2eNames, n)
	}
	for _, m := range layerMetrics {
		layerNames = append(layerNames, m.name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			work := filepath.Join(dir, "work", w)
			if err := os.MkdirAll(work, 0o755); err != nil {
				t.Fatal(err)
			}
			e := &env{ccsig: bin, fixtures: "fixtures", model: filepath.Join("fixtures", modelFile),
				work: work, scale: 0.003, runs: 1}
			res, sizes, err := runWorkload(context.Background(), e, w, 5, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, res, provenance(w, 5, traced, sizes)); err != nil {
				t.Fatal(err)
			}
			want := e2eNames
			if traced {
				want = layerNames
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, n := range want {
				m, ok := res.Metrics[n]
				if !ok {
					t.Errorf("%s traced=%t: metric %s missing", w, traced, n)
					continue
				}
				if !strings.Contains(out.String(), "metric "+n) || !strings.Contains(out.String(), " "+m.Unit+"\n") {
					t.Errorf("%s traced=%t: metric %s not printed with unit %s", w, traced, n, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, n, m.Value)
				}
			}
			if w != "serve-short-flows" && res.Failed != 0 {
				t.Errorf("%s traced=%t: %d of %d failed", w, traced, res.Failed, res.Attempted)
			}
			last := lastLine(out.Bytes())
			var parsed map[string]json.RawMessage
			if err := json.Unmarshal(last, &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("%s traced=%t: last line %q is not the 4-key result", w, traced, last)
			}
		}
	}
}

func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	return last
}
