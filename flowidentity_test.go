package tcpsig

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"tcpsig/internal/pcap"
)

// Flow identity on real captures: flows are keyed on the full IPv4
// address, so clients that differ in any octet are distinct flows and
// every verdict reports the addresses it was captured with.

// TestClassifyPcapManyClientsExactAddresses: 70,000 clients spread over all
// of IPv4, all on the same client port, each with a short download from
// one server. Every flow yields its own verdict carrying its exact client
// address, in capture order.
func TestClassifyPcapManyClientsExactAddresses(t *testing.T) {
	const (
		flows   = 70_000 // more than 1<<16 distinct clients
		server  = 10<<24 | 2
		srvPort = 80
		cliPort = 40000
		payload = 1000
	)
	var (
		raw     = multiFlowPcap(t, 0, 0) // file header only
		frame   []byte
		clients []string
		us      int64
	)
	appendRec := func(src, dst uint32, sport, dport uint16, seq, ack uint32, n int) {
		frame = (&pcap.Ethernet{EtherType: pcap.EtherTypeIPv4}).Marshal(frame[:0])
		frame = (&pcap.IPv4{TotalLen: uint16(pcap.IPv4HeaderLen + pcap.TCPHeaderLen + n), Protocol: pcap.ProtoTCP, Src: src, Dst: dst}).Marshal(frame)
		frame = (&pcap.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: pcap.TCPFlagACK}).Marshal(frame)
		raw = appendRecord(raw, us, frame, n)
		us += 10
	}
	// An odd multiplier permutes uint32, so the clients are distinct and
	// spread over every octet. Each flow is two data/ACK rounds.
	for i := uint32(1); len(clients) < flows; i++ {
		client := i * 0x9e3779b1
		if client == server {
			continue
		}
		for seq := uint32(1000); seq < 1000+2*payload; seq += payload {
			appendRec(server, client, srvPort, cliPort, seq, 1, payload)
			appendRec(client, server, cliPort, srvPort, 1, seq+payload, 0)
		}
		clients = append(clients, pcap.FormatIPv4(client))
	}

	verdicts, err := toyClassifier(t).ClassifyPcap(bytes.NewReader(raw), pcap.FormatIPv4(server))
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != flows {
		t.Fatalf("verdicts = %d, want %d", len(verdicts), flows)
	}
	for i, fv := range verdicts {
		if fv.DstIP != clients[i] || fv.DstPort != cliPort || fv.SrcIP != "10.0.0.2" || fv.SrcPort != srvPort {
			t.Fatalf("verdict %d is %s:%d -> %s:%d, want 10.0.0.2:%d -> %s:%d",
				i, fv.SrcIP, fv.SrcPort, fv.DstIP, fv.DstPort, srvPort, clients[i], cliPort)
		}
	}
}

// appendRecord appends frame to a little-endian microsecond capture file as
// a record stamped at us, with payload bytes cut off by the snap length.
func appendRecord(file []byte, us int64, frame []byte, payload int) []byte {
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(us/1e6))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(us%1e6))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)+payload))
	return append(append(file, rec[:]...), frame...)
}

// FuzzFlowIdentity rewrites one octet of one flow's client address in a
// multi-flow capture and checks that the number of verdicts does not
// change, and that the rewritten client is reported as such. Rewrites
// that make the flow identical to another one (same client address and
// port), or turn the client into the server, are outside the property.
func FuzzFlowIdentity(f *testing.F) {
	base := twinFlowPcap(f)
	server := pcap.ServerIP(2)
	flows := []struct {
		addr uint32
		port uint16
	}{
		{multiFlowClient, 40000}, {multiFlowClient, 40001}, {multiFlowClient, 40002}, {77<<24 | 1, 40000},
	}
	clf := toyClassifier(f)
	classify := func(t testing.TB, raw []byte) []FlowVerdict {
		verdicts, err := clf.ClassifyPcap(bytes.NewReader(raw), pcap.FormatIPv4(server))
		if err != nil {
			t.Fatal(err)
		}
		return verdicts
	}
	if n := len(classify(f, base)); n != len(flows) {
		f.Fatalf("base capture: %d verdicts, want %d", n, len(flows))
	}

	f.Add(uint8(1), uint8(0), uint8(11))  // first octet of a 10.x client
	f.Add(uint8(3), uint8(0), uint8(200)) // first octet of the 77.x twin
	f.Add(uint8(3), uint8(0), uint8(10))  // twin onto its original: skipped
	f.Add(uint8(0), uint8(3), uint8(9))
	f.Add(uint8(2), uint8(1), uint8(255))
	f.Add(uint8(0), uint8(3), uint8(2)) // client onto the server: skipped
	f.Fuzz(func(t *testing.T, flow, octet, val uint8) {
		fl := flows[int(flow)%len(flows)]
		shift := 8 * (3 - uint(octet)%4)
		to := fl.addr&^(0xff<<shift) | uint32(val)<<shift
		if to == fl.addr || to == server {
			return
		}
		for _, other := range flows {
			if other.addr == to && other.port == fl.port {
				return
			}
		}
		verdicts := classify(t, rewriteClient(base, fl.port, fl.addr, to))
		if len(verdicts) != len(flows) {
			t.Fatalf("client %s:%d rewritten to %s: %d verdicts, want %d",
				pcap.FormatIPv4(fl.addr), fl.port, pcap.FormatIPv4(to), len(verdicts), len(flows))
		}
		want := fmt.Sprintf("%s:%d", pcap.FormatIPv4(to), fl.port)
		for _, fv := range verdicts {
			if fmt.Sprintf("%s:%d", fv.DstIP, fv.DstPort) == want {
				return
			}
		}
		t.Fatalf("no verdict for rewritten client %s", want)
	})
}
