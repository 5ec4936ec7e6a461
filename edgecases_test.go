package tcpsig

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
)

// Edge cases for the root-package dataset and summary entry points: empty
// inputs, single flows, and captures where every verdict is degraded.

func TestWriteExamplesCSVEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		examples []Example
		wantErr  bool
		// wantRows counts non-empty output lines including the header.
		wantRows int
	}{
		{name: "empty dataset", examples: nil, wantRows: 1},
		{name: "single example", examples: []Example{{X: []float64{0.8, 0.4}, Label: SelfInduced}}, wantRows: 2},
		{name: "wrong feature arity", examples: []Example{{X: []float64{0.8}, Label: SelfInduced}}, wantErr: true},
		{name: "no features at all", examples: []Example{{Label: External}}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := WriteExamplesCSV(&buf, c.examples)
			if c.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rows := strings.Count(strings.TrimRight(buf.String(), "\n"), "\n") + 1
			if rows != c.wantRows {
				t.Fatalf("rows = %d, want %d\n%s", rows, c.wantRows, buf.String())
			}
			// A header-only file is an empty dataset: reading it back must
			// error rather than yield zero examples.
			if len(c.examples) == 0 {
				if _, err := ReadExamplesCSV(bytes.NewReader(buf.Bytes())); err == nil {
					t.Fatal("reading an empty dataset should error")
				}
				return
			}
			back, err := ReadExamplesCSV(bytes.NewReader(buf.Bytes()))
			if err != nil || len(back) != len(c.examples) {
				t.Fatalf("round trip: %v, %d examples", err, len(back))
			}
		})
	}
}

// multiFlowPcap builds a server-side capture with n clean download flows of
// the given number of data/ACK rounds each (same shape as synthPcap).
func multiFlowPcap(t testing.TB, n, rounds int) []byte {
	t.Helper()
	capt := &netem.Capture{}
	for f := 0; f < n; f++ {
		flow := netem.FlowKey{SrcAddr: 2, DstAddr: 1, SrcPort: 80, DstPort: netem.Port(40000 + f)}
		seq := uint32(1000)
		at := sim.Time(f) * sim.Time(time.Millisecond)
		for i := 0; i < rounds; i++ {
			capt.Records = append(capt.Records, netem.CaptureRecord{At: at, Dir: netem.DirOut, Pkt: netem.Packet{
				Flow: flow,
				Seg:  netem.Segment{Seq: seq, Flags: netem.FlagACK, PayloadLen: 1460},
				Size: 1460 + netem.HeaderBytes,
			}})
			rtt := 20*time.Millisecond + time.Duration(i)*2*time.Millisecond
			seq += 1460
			capt.Records = append(capt.Records, netem.CaptureRecord{At: at + sim.Time(rtt), Dir: netem.DirIn, Pkt: netem.Packet{
				Flow: flow.Reverse(),
				Seg:  netem.Segment{Ack: seq, Flags: netem.FlagACK},
				Size: netem.HeaderBytes,
			}})
			at += sim.Time(rtt) + sim.Time(5*time.Millisecond)
		}
	}
	var buf bytes.Buffer
	if err := pcap.NewWriter(&buf).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multiFlowClient is the client address multiFlowPcap's writer gives every
// flow (emulator address 1 in 10.0.0.0/8).
const multiFlowClient = 10<<24 | 1

// rewriteClient returns a copy of the capture file raw in which the flow on
// client port port has its client address from replaced by to. It relies
// on the writer's fixed frame layout (Ethernet, 20-byte IPv4, TCP).
func rewriteClient(raw []byte, port uint16, from, to uint32) []byte {
	out := append([]byte(nil), raw...)
	for off := 24; off+16 <= len(out); {
		incl := int(binary.LittleEndian.Uint32(out[off+8:]))
		ip := out[off+16+pcap.EthernetHeaderLen : off+16+incl]
		off += 16 + incl
		tcp := ip[pcap.IPv4HeaderLen:]
		// Source address and port, then destination address and port.
		for i := 0; i < 2; i++ {
			if binary.BigEndian.Uint32(ip[12+4*i:]) == from && binary.BigEndian.Uint16(tcp[2*i:]) == port {
				binary.BigEndian.PutUint32(ip[12+4*i:], to)
			}
		}
	}
	return out
}

// twinFlowPcap is multiFlowPcap(t, 3, 14) plus a copy of its first flow
// whose client is rewritten from 10.0.0.1 to 77.0.0.1: four flows, two of
// which differ only in the first octet of the client address.
func twinFlowPcap(t testing.TB) []byte {
	twin := rewriteClient(multiFlowPcap(t, 1, 14), 40000, multiFlowClient, 77<<24|1)
	return append(multiFlowPcap(t, 3, 14), twin[24:]...)
}

func TestSummarizePcapEdgeCases(t *testing.T) {
	server := pcap.FormatIPv4(pcap.ServerIP(2))
	cases := []struct {
		name      string
		pcap      func(t *testing.T) []byte
		serverIP  string
		wantErr   bool
		wantFlows int
		// wantValid counts summaries with FeaturesValid set.
		wantValid int
		// wantClients, when set, lists every flow's client "ip:port" in
		// first-appearance order, as both SummarizePcap and ClassifyPcap
		// must report it.
		wantClients []string
	}{
		{
			name:     "bad server IP",
			pcap:     func(t *testing.T) []byte { return multiFlowPcap(t, 1, 14) },
			serverIP: "not-an-ip",
			wantErr:  true,
		},
		{
			name:     "empty capture",
			pcap:     func(t *testing.T) []byte { return multiFlowPcap(t, 0, 0) },
			serverIP: server,
			// No flows is a valid summary of an idle server, not an error.
			wantFlows: 0,
		},
		{
			name:      "single flow",
			pcap:      func(t *testing.T) []byte { return multiFlowPcap(t, 1, 14) },
			serverIP:  server,
			wantFlows: 1,
			wantValid: 1,
		},
		{
			name:      "all flows below the sample floor",
			pcap:      func(t *testing.T) []byte { return multiFlowPcap(t, 3, 5) },
			serverIP:  server,
			wantFlows: 3,
			wantValid: 0,
		},
		{
			// Two clients differing only in the first octet, same ports:
			// distinct flows, each reported with its own address.
			name:        "clients differing only in the first octet",
			pcap:        func(t *testing.T) []byte { return twinFlowPcap(t) },
			serverIP:    server,
			wantFlows:   4,
			wantValid:   4,
			wantClients: []string{"10.0.0.1:40000", "10.0.0.1:40001", "10.0.0.1:40002", "77.0.0.1:40000"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := c.pcap(t)
			verdicts, verr := toyClassifier(t).ClassifyPcap(bytes.NewReader(raw), c.serverIP)
			summaries, err := SummarizePcap(bytes.NewReader(raw), c.serverIP)
			if c.wantErr {
				if err == nil || verr == nil {
					t.Fatalf("want errors, got %v and %v", err, verr)
				}
				return
			}
			if err != nil || verr != nil {
				t.Fatal(err, verr)
			}
			if len(summaries) != c.wantFlows || len(verdicts) != c.wantFlows {
				t.Fatalf("flows = %d summarized, %d classified, want %d", len(summaries), len(verdicts), c.wantFlows)
			}
			for i, s := range summaries {
				fv := verdicts[i]
				if s.SrcIP != c.serverIP || fv.SrcIP != c.serverIP {
					t.Fatalf("flow %d server = %s / %s, want %s", i, s.SrcIP, fv.SrcIP, c.serverIP)
				}
				got := fmt.Sprintf("%s:%d", s.DstIP, s.DstPort)
				if v := fmt.Sprintf("%s:%d", fv.DstIP, fv.DstPort); v != got {
					t.Fatalf("flow %d client summarized as %s, classified as %s", i, got, v)
				}
				if c.wantClients != nil && got != c.wantClients[i] {
					t.Fatalf("flow %d client = %s, want %s", i, got, c.wantClients[i])
				}
			}
			valid := 0
			for _, s := range summaries {
				if s.FeaturesValid {
					valid++
				}
				if s.BytesSent == 0 {
					t.Fatalf("summary with no bytes: %+v", s)
				}
			}
			if valid != c.wantValid {
				t.Fatalf("valid feature sets = %d, want %d", valid, c.wantValid)
			}
		})
	}
}

// TestClassifyPcapAllDegradedVerdicts: a capture where every flow fails the
// 10-sample validity rule still yields one best-effort verdict per flow,
// each carrying the typed error and a degraded confidence.
func TestClassifyPcapAllDegradedVerdicts(t *testing.T) {
	c := toyClassifier(t)
	verdicts, err := c.ClassifyPcap(bytes.NewReader(multiFlowPcap(t, 3, 5)), pcap.FormatIPv4(pcap.ServerIP(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d, want 3", len(verdicts))
	}
	for _, fv := range verdicts {
		if !errors.Is(fv.Err, ErrTooFewSamples) {
			t.Fatalf("flow %s:%d err = %v, want ErrTooFewSamples", fv.DstIP, fv.DstPort, fv.Err)
		}
		if fv.Verdict.Reason != ReasonTooFewSamples {
			t.Fatalf("reason = %q", fv.Verdict.Reason)
		}
		if fv.Verdict.Class != SelfInduced && fv.Verdict.Class != External {
			t.Fatalf("degraded verdict lost its class: %+v", fv.Verdict)
		}
		if fv.Verdict.Confidence <= 0 || fv.Verdict.Confidence > 0.5 {
			t.Fatalf("degraded confidence = %v", fv.Verdict.Confidence)
		}
	}
}

// TestClassifyPcapEmptyCapture: no flows, no verdicts, no error.
func TestClassifyPcapEmptyCapture(t *testing.T) {
	c := toyClassifier(t)
	verdicts, err := c.ClassifyPcap(bytes.NewReader(multiFlowPcap(t, 0, 0)), pcap.FormatIPv4(pcap.ServerIP(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 0 {
		t.Fatalf("verdicts from empty capture: %d", len(verdicts))
	}
}
