package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tcpsig"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
)

// servePcap writes a server-side capture (server 10.0.0.2, client 10.0.0.1)
// of n clean 14-round download flows on client ports 40000, 40001, ...
func servePcap(t *testing.T, n int) []byte {
	t.Helper()
	capt := &netem.Capture{}
	for f := 0; f < n; f++ {
		flow := netem.FlowKey{SrcAddr: 2, DstAddr: 1, SrcPort: 80, DstPort: netem.Port(40000 + f)}
		seq := uint32(1000)
		at := sim.Time(f) * sim.Time(time.Millisecond)
		for i := 0; i < 14; i++ {
			rtt := sim.Time(20*time.Millisecond + time.Duration(i)*2*time.Millisecond)
			capt.Records = append(capt.Records,
				netem.CaptureRecord{At: at, Dir: netem.DirOut, Pkt: netem.Packet{Flow: flow, Seg: netem.Segment{Seq: seq, Flags: netem.FlagACK, PayloadLen: 1460}}},
				netem.CaptureRecord{At: at + rtt, Dir: netem.DirIn, Pkt: netem.Packet{Flow: flow.Reverse(), Seg: netem.Segment{Ack: seq + 1460, Flags: netem.FlagACK}}})
			seq += 1460
			at += rtt + sim.Time(5*time.Millisecond)
		}
	}
	var buf bytes.Buffer
	if err := pcap.NewWriter(&buf).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRecords appends one record per frame, stamped at time zero, to a
// copy of the little-endian capture file raw.
func withRecords(raw []byte, frames ...[]byte) []byte {
	out := append([]byte(nil), raw...)
	for _, f := range frames {
		var rec [16]byte
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(f)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(f)))
		out = append(append(out, rec[:]...), f...)
	}
	return out
}

// sortedLines splits NDJSON output into its lines, sorted.
func sortedLines(s string) []string {
	lines := strings.SplitAfter(s, "\n")
	lines = lines[:len(lines)-1]
	slices.Sort(lines)
	return lines
}

// TestServeCaptures drives `ccsig serve` over captures with known flows:
// each flow yields exactly one verdict line, with its exact addresses and
// the same bytes `ccsig classify -json` gives it, and frames that are not
// IPv4/TCP are counted on serve's final stderr line.
func TestServeCaptures(t *testing.T) {
	var ex []tcpsig.Example
	for i := 0; i < 40; i++ {
		d := float64(i) / 100
		ex = append(ex,
			tcpsig.Example{X: []float64{0.6 + d/4, 0.3 + d/4}, Label: tcpsig.SelfInduced},
			tcpsig.Example{X: []float64{0.1 + d/4, 0.05 + d/8}, Label: tcpsig.External})
	}
	clf, err := tcpsig.Train(ex, tcpsig.TrainOptions{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	if err := clf.SaveFile(model); err != nil {
		t.Fatal(err)
	}

	base := servePcap(t, 3)
	// The first flow again, its client rewritten from 10.0.0.1 to
	// 77.0.0.1 in every frame (writer frames: Ethernet, 20-byte IPv4).
	twin := servePcap(t, 1)
	for off := 24; off < len(twin); {
		incl := int(binary.LittleEndian.Uint32(twin[off+8:]))
		ip := twin[off+16+pcap.EthernetHeaderLen:]
		for _, a := range [2]int{12, 16} {
			if binary.BigEndian.Uint32(ip[a:]) == 10<<24|1 {
				binary.BigEndian.PutUint32(ip[a:], 77<<24|1)
			}
		}
		off += 16 + incl
	}
	arp := append((&pcap.Ethernet{EtherType: 0x0806}).Marshal(nil), make([]byte, 28)...)
	ipv6 := append((&pcap.Ethernet{EtherType: 0x86dd}).Marshal(nil), make([]byte, 40+pcap.TCPHeaderLen)...)
	ipv6[pcap.EthernetHeaderLen] = 0x60
	udp := (&pcap.Ethernet{EtherType: pcap.EtherTypeIPv4}).Marshal(nil)
	udp = (&pcap.IPv4{TotalLen: pcap.IPv4HeaderLen + 8, Protocol: 17, Src: 10<<24 | 1, Dst: 10<<24 | 2}).Marshal(udp)
	udp = append(udp, make([]byte, 8)...)

	three := []string{"10.0.0.2:80 10.0.0.1:40000", "10.0.0.2:80 10.0.0.1:40001", "10.0.0.2:80 10.0.0.1:40002"}
	cases := []struct {
		name        string
		raw         []byte
		wantFlows   []string // sorted "src:port dst:port"
		wantSkipped int
	}{
		{name: "three flows", raw: base, wantFlows: three},
		{
			name:      "clients differing only in the first octet",
			raw:       append(append([]byte(nil), base...), twin[24:]...),
			wantFlows: append(slices.Clone(three), "10.0.0.2:80 77.0.0.1:40000"),
		},
		{name: "ARP, IPv6 and UDP frames", raw: withRecords(base, arp, ipv6, udp), wantFlows: three, wantSkipped: 3},
	}
	var baseLines []string
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, "capture.pcap")
			if err := os.WriteFile(path, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			out, stderr, code := runCLI(t, "serve", "-model", model, "-server", "10.0.0.2", path)
			if code != 0 {
				t.Fatalf("serve exit %d: %s", code, stderr)
			}
			wantTail := fmt.Sprintf("verdicts=%d evicted=0 ingest-dropped=0 skipped=%d\n", len(c.wantFlows), c.wantSkipped)
			if !strings.HasSuffix(stderr, wantTail) {
				t.Fatalf("serve stderr %q, want it to end in %q", stderr, wantTail)
			}
			lines := sortedLines(out)
			var flows []string
			for _, l := range lines {
				var v verdictJSON
				if err := json.Unmarshal([]byte(l), &v); err != nil {
					t.Fatal(err)
				}
				flows = append(flows, fmt.Sprintf("%s:%d %s:%d", v.SrcIP, v.SrcPort, v.DstIP, v.DstPort))
			}
			slices.Sort(flows)
			if !slices.Equal(flows, c.wantFlows) {
				t.Fatalf("serve reported flows %q, want %q", flows, c.wantFlows)
			}
			batch, stderr, code := runCLI(t, "classify", "-model", model, "-server", "10.0.0.2", "-json", path)
			if code != 0 {
				t.Fatalf("classify exit %d: %s", code, stderr)
			}
			if b := sortedLines(batch); !slices.Equal(lines, b) {
				t.Fatalf("serve lines differ from classify -json:\n%s\nvs\n%s", lines, b)
			}
			if baseLines == nil {
				baseLines = lines
			} else if c.wantSkipped > 0 && !slices.Equal(lines, baseLines) {
				t.Fatalf("skipped frames changed the verdicts:\n%s\nvs\n%s", lines, baseLines)
			}
		})
	}
}
