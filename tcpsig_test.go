package tcpsig

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
)

func toyClassifier(t testing.TB) *Classifier {
	t.Helper()
	var ex []Example
	for i := 0; i < 40; i++ {
		d := float64(i) / 100
		ex = append(ex,
			Example{X: []float64{0.6 + d/4, 0.3 + d/4}, Label: SelfInduced},
			Example{X: []float64{0.1 + d/4, 0.05 + d/8}, Label: External},
		)
	}
	c, err := Train(ex, TrainOptions{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFeaturesFromRTTs(t *testing.T) {
	ramp := make([]time.Duration, 12)
	for i := range ramp {
		ramp[i] = time.Duration(20+9*i) * time.Millisecond
	}
	v, err := FeaturesFromRTTs(ramp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.NormDiff <= 0.5 || v.CoV <= 0.1 {
		t.Fatalf("ramp features: %+v", v)
	}
	if _, err := FeaturesFromRTTs(ramp[:5], 0); err == nil {
		t.Fatal("5 samples should be rejected")
	}
}

func TestClassifyAndPersistence(t *testing.T) {
	c := toyClassifier(t)
	ramp := make([]time.Duration, 12)
	for i := range ramp {
		ramp[i] = time.Duration(20+9*i) * time.Millisecond
	}
	v, err := c.ClassifyRTTs(ramp)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != SelfInduced {
		t.Fatalf("got %s", ClassName(v.Class))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c2.ClassifyRTTs(ramp)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Class != v.Class {
		t.Fatal("prediction changed after round trip")
	}
	if c2.Threshold() != 0.8 {
		t.Fatalf("threshold lost: %v", c2.Threshold())
	}
	if c2.Tree() == "" {
		t.Fatal("empty tree rendering")
	}
}

func TestClassifyPcapEndToEnd(t *testing.T) {
	// Emulate a speed test that saturates a 20 Mbps access link, write
	// the server-side capture as a pcap file, classify it via the
	// file-based public API.
	eng := sim.NewEngine(41)
	net := netem.New(eng)
	client := net.NewHost("client")
	server := net.NewHost("server")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	net.Connect(server, client,
		netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
		netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Millisecond})
	capt := server.EnableCapture()
	tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 5*time.Second)
	eng.Run()

	dir := t.TempDir()
	path := filepath.Join(dir, "trace.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.NewWriter(f).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c := toyClassifier(t)
	serverIP := pcap.ServerIP(server.Addr())
	verdicts, err := c.ClassifyPcapFile(path, pcap.FormatIPv4(serverIP))
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("flows = %d", len(verdicts))
	}
	fv := verdicts[0]
	if fv.Err != nil {
		t.Fatal(fv.Err)
	}
	if fv.Verdict.Class != SelfInduced {
		t.Fatalf("bottleneck-filling flow classified %s (features %+v)",
			ClassName(fv.Verdict.Class), fv.Verdict.Features)
	}
	if fv.SrcPort != 80 || fv.DstPort != 40000 {
		t.Fatalf("flow identity wrong: %+v", fv)
	}
	// §2.3: the slow-start rate of a self-induced flow estimates the
	// bottleneck capacity (20 Mbps here).
	cap, ok := fv.Verdict.CapacityEstimate()
	if !ok {
		t.Fatal("no capacity estimate for a self-induced verdict with flow analysis")
	}
	if cap < 15e6 || cap > 25e6 {
		t.Fatalf("capacity estimate %.1f Mbps, want ~20", cap/1e6)
	}
}

func TestSummarizePcap(t *testing.T) {
	// Reuse the end-to-end fixture: emulate, write pcap, summarize.
	eng := sim.NewEngine(42)
	net := netem.New(eng)
	client := net.NewHost("client")
	server := net.NewHost("server")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	net.Connect(server, client,
		netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
		netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Millisecond})
	capt := server.EnableCapture()
	tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 5*time.Second)
	eng.Run()

	path := filepath.Join(t.TempDir(), "trace.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.NewWriter(f).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	summaries, err := SummarizePcapFile(path, pcap.FormatIPv4(pcap.ServerIP(server.Addr())))
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 1 {
		t.Fatalf("summaries = %d", len(summaries))
	}
	s := summaries[0]
	if s.ThroughputBps < 15e6 || s.ThroughputBps > 21e6 {
		t.Fatalf("goodput %.1f Mbps", s.ThroughputBps/1e6)
	}
	if !s.HasRetransmit || s.FirstRetransmitAt == 0 {
		t.Fatal("slow-start boundary missing")
	}
	if !s.FeaturesValid || s.RTTSamples < 10 {
		t.Fatalf("features invalid: %+v", s)
	}
	if s.Duration < 4*time.Second || s.BytesAcked < 5_000_000 {
		t.Fatalf("flow totals off: %+v", s)
	}
}

// synthPcap builds a server-side capture of one clean download flow with
// the given number of data/ACK round trips (20 ms RTT, no loss).
func synthPcap(t *testing.T, rounds int) []byte {
	t.Helper()
	flow := netem.FlowKey{SrcAddr: 2, DstAddr: 1, SrcPort: 80, DstPort: 40000}
	capt := &netem.Capture{}
	seq := uint32(1000)
	at := sim.Time(0)
	for i := 0; i < rounds; i++ {
		data := netem.Packet{
			Flow: flow,
			Seg:  netem.Segment{Seq: seq, Flags: netem.FlagACK, PayloadLen: 1460},
			Size: 1460 + netem.HeaderBytes,
		}
		capt.Records = append(capt.Records, netem.CaptureRecord{At: at, Dir: netem.DirOut, Pkt: data})
		// RTT grows a little each round so features are non-degenerate.
		rtt := 20*time.Millisecond + time.Duration(i)*2*time.Millisecond
		seq += 1460
		ack := netem.Packet{
			Flow: flow.Reverse(),
			Seg:  netem.Segment{Ack: seq, Flags: netem.FlagACK},
			Size: netem.HeaderBytes,
		}
		capt.Records = append(capt.Records, netem.CaptureRecord{At: at + sim.Time(rtt), Dir: netem.DirIn, Pkt: ack})
		at += sim.Time(rtt) + sim.Time(5*time.Millisecond)
	}
	var buf bytes.Buffer
	if err := pcap.NewWriter(&buf).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClassifyPcapTruncatedTraceTypedError(t *testing.T) {
	c := toyClassifier(t)
	server := pcap.FormatIPv4(pcap.ServerIP(2))
	raw := synthPcap(t, 14)
	// Cut the file mid-record: everything before the cut must still be
	// classified, and the damage must surface as ErrCorruptTrace.
	cut := raw[:len(raw)-11]
	verdicts, err := c.ClassifyPcap(bytes.NewReader(cut), server)
	if !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("err = %v, want ErrCorruptTrace", err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("flows classified from truncated trace = %d, want 1", len(verdicts))
	}
	if verdicts[0].Verdict.Class < 0 {
		t.Fatalf("no verdict from truncated trace: %+v", verdicts[0])
	}

	// Damage that kills the file header entirely yields no verdicts but
	// still the typed error, never a panic.
	raw[0] ^= 0xff
	verdicts, err = c.ClassifyPcap(bytes.NewReader(raw), server)
	if !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("bad-magic err = %v, want ErrCorruptTrace", err)
	}
	if len(verdicts) != 0 {
		t.Fatalf("verdicts from unreadable trace: %d", len(verdicts))
	}
}

func TestClassifyPcapDegradedVerdict(t *testing.T) {
	c := toyClassifier(t)
	server := pcap.FormatIPv4(pcap.ServerIP(2))
	// 5 round trips: below the 10-sample validity floor, but enough to
	// compute features for a best-effort verdict.
	verdicts, err := c.ClassifyPcap(bytes.NewReader(synthPcap(t, 5)), server)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("flows = %d", len(verdicts))
	}
	fv := verdicts[0]
	if !errors.Is(fv.Err, ErrTooFewSamples) {
		t.Fatalf("flow err = %v, want ErrTooFewSamples", fv.Err)
	}
	v := fv.Verdict
	if v.Class != SelfInduced && v.Class != External {
		t.Fatalf("degraded verdict has no class: %+v", v)
	}
	if v.Reason != ReasonTooFewSamples {
		t.Fatalf("reason = %q, want %q", v.Reason, ReasonTooFewSamples)
	}
	if v.Confidence <= 0 || v.Confidence > 0.5 {
		t.Fatalf("degraded confidence = %v, want in (0, 0.5] for 5/10 samples", v.Confidence)
	}
	if v.Features.Samples != 5 {
		t.Fatalf("features from %d samples", v.Features.Samples)
	}
}

func TestTrainOnTestbedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	c, err := TrainOnTestbed(TrainTestbedOptions{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: classify canonical feature points.
	self := c.ClassifyFeatures(Features{NormDiff: 0.8, CoV: 0.45})
	ext := c.ClassifyFeatures(Features{NormDiff: 0.15, CoV: 0.05})
	if self.Class != SelfInduced || ext.Class != External {
		t.Fatalf("quick testbed model misclassifies canonical points: %v %v\n%s",
			self.Class, ext.Class, c.Tree())
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
}
