package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
)

func TestLayerRoundTrip(t *testing.T) {
	eth := Ethernet{Dst: [6]byte{1, 2, 3, 4, 5, 6}, Src: [6]byte{7, 8, 9, 10, 11, 12}, EtherType: EtherTypeIPv4}
	b := eth.Marshal(nil)
	var eth2 Ethernet
	if err := eth2.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if eth2 != eth {
		t.Fatalf("ethernet round trip: %+v vs %+v", eth2, eth)
	}

	ip := IPv4{TotalLen: 1500, ID: 42, TTL: 64, Protocol: ProtoTCP, Src: 0x0a000001, Dst: 0x0a000002}
	b = ip.Marshal(nil)
	var ip2 IPv4
	if err := ip2.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if ip2 != ip {
		t.Fatalf("ipv4 round trip: %+v vs %+v", ip2, ip)
	}
	// Checksum must validate: summing the header including the stored
	// checksum yields 0xffff.
	var sum uint32
	for i := 0; i+1 < IPv4HeaderLen; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	if sum != 0xffff {
		t.Fatalf("IP checksum invalid: %#x", sum)
	}

	tcp := TCP{SrcPort: 80, DstPort: 40000, Seq: 12345, Ack: 6789, Flags: TCPFlagACK | TCPFlagPSH, Window: 65535}
	b = tcp.Marshal(nil)
	var tcp2 TCP
	if err := tcp2.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	tcp.DataOff = TCPHeaderLen
	if tcp2 != tcp {
		t.Fatalf("tcp round trip: %+v vs %+v", tcp2, tcp)
	}
}

func TestTruncatedErrors(t *testing.T) {
	var e Ethernet
	if err := e.Unmarshal(make([]byte, 5)); err != ErrTruncated {
		t.Fatal("short ethernet")
	}
	var ip IPv4
	if err := ip.Unmarshal(make([]byte, 10)); err != ErrTruncated {
		t.Fatal("short ip")
	}
	var tc TCP
	if err := tc.Unmarshal(make([]byte, 10)); err != ErrTruncated {
		t.Fatal("short tcp")
	}
}

func mkCapture() *netem.Capture {
	flow := netem.FlowKey{SrcAddr: 2, DstAddr: 3, SrcPort: 80, DstPort: 40000}
	c := &netem.Capture{}
	at := sim.Time(0)
	for i := 0; i < 20; i++ {
		c.Records = append(c.Records, netem.CaptureRecord{
			At:  at,
			Dir: netem.DirOut,
			Pkt: netem.Packet{
				Flow: flow,
				Seg:  netem.Segment{Seq: uint32(1000 + i*1460), Ack: 777, Flags: netem.FlagACK, Window: 65000, PayloadLen: 1460},
				Size: 1500,
			},
		})
		c.Records = append(c.Records, netem.CaptureRecord{
			At:  at + 20*time.Millisecond,
			Dir: netem.DirIn,
			Pkt: netem.Packet{
				Flow: flow.Reverse(),
				Seg:  netem.Segment{Seq: 777, Ack: uint32(1000 + (i+1)*1460), Flags: netem.FlagACK, Window: 65000},
				Size: 40,
			},
		})
		at += 21 * time.Millisecond
	}
	return c
}

func TestFileRoundTrip(t *testing.T) {
	capt := mkCapture()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(capt.Records) {
		t.Fatalf("read %d records, want %d", len(recs), len(capt.Records))
	}
	for i, r := range recs {
		orig := &capt.Records[i]
		if r.Seq != orig.Pkt.Seg.Seq || r.Ack != orig.Pkt.Seg.Ack {
			t.Fatalf("record %d seq/ack mismatch", i)
		}
		if r.Payload != orig.Pkt.Seg.PayloadLen {
			t.Fatalf("record %d payload %d, want %d", i, r.Payload, orig.Pkt.Seg.PayloadLen)
		}
		if r.Time != time.Duration(orig.At) {
			t.Fatalf("record %d time %v, want %v", i, r.Time, orig.At)
		}
	}

	// Round trip back into a capture preserving directions. Read-back keys
	// carry the full address the writer mapped each emulator address to.
	back := ToCapture(recs, ServerIP(2))
	for i := range back.Records {
		if back.Records[i].Dir != capt.Records[i].Dir {
			t.Fatalf("record %d direction flipped", i)
		}
		want := capt.Records[i].Pkt.Flow
		want.SrcAddr = IPToAddr(ServerIP(want.SrcAddr))
		want.DstAddr = IPToAddr(ServerIP(want.DstAddr))
		if got := back.Records[i].Pkt.Flow; got != want {
			t.Fatalf("record %d flow %+v, want %+v", i, got, want)
		}
	}
}

func TestParseIPv4(t *testing.T) {
	ip, err := ParseIPv4("10.0.0.2")
	if err != nil || ip != 0x0a000002 {
		t.Fatalf("ParseIPv4(10.0.0.2) = %#x, %v", ip, err)
	}
	bad := []string{
		"", "1.2.3", "256.1.1.1", "a.b.c.d",
		// Trailing junk and variants fmt.Sscanf-style parsing accepted.
		"1.2.3.4junk", "1.2.3.4.5", " 1.2.3.4", "1.2.3.4 ",
		"::1", "::ffff:1.2.3.4", "01.2.3.4",
	}
	for _, s := range bad {
		if _, err := ParseIPv4(s); err == nil {
			t.Fatalf("%q accepted", s)
		}
	}
	for _, s := range []string{"10.0.1.2", "0.0.0.0", "255.255.255.255", "77.0.0.1"} {
		ip, err := ParseIPv4(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatIPv4(ip); got != s {
			t.Fatalf("FormatIPv4(ParseIPv4(%s)) = %s", s, got)
		}
	}
}

func TestEmptyFileHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("empty file length %d, want 24", buf.Len())
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 0 {
		t.Fatalf("reading empty file: %v, %d records", err, len(recs))
	}
}

func TestNanosecondMagicAccepted(t *testing.T) {
	// Build a nanosecond-resolution file by hand: header + one TCP frame
	// stamped at 1.000000500s.
	var buf bytes.Buffer
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b23c4d)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], 1)
	buf.Write(hdr[:])

	frame := (&Ethernet{EtherType: EtherTypeIPv4}).Marshal(nil)
	frame = (&IPv4{TotalLen: IPv4HeaderLen + TCPHeaderLen + 100, Protocol: ProtoTCP, Src: 1, Dst: 2}).Marshal(frame)
	frame = (&TCP{SrcPort: 80, DstPort: 81, Seq: 7}).Marshal(frame)
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:4], 1)   // sec
	binary.LittleEndian.PutUint32(rec[4:8], 500) // nanoseconds
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)+100))
	buf.Write(rec[:])
	buf.Write(frame)
	// Second frame 1µs later to expose the relative timestamp.
	binary.LittleEndian.PutUint32(rec[4:8], 1500)
	buf.Write(rec[:])
	buf.Write(frame)

	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Payload != 100 || recs[0].Seq != 7 {
		t.Fatalf("frame decode: %+v", recs[0])
	}
	if d := recs[1].Time - recs[0].Time; d != time.Microsecond {
		t.Fatalf("nanosecond timestamps misread: delta %v, want 1µs", d)
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, err := ReadAll(bytes.NewReader(make([]byte, 24)))
	if err == nil {
		t.Fatal("zero magic accepted")
	}
}

func TestShortHeaderEOF(t *testing.T) {
	_, err := ReadAll(bytes.NewReader([]byte{1, 2, 3}))
	if !errors.Is(err, ErrTruncatedRecord) {
		t.Fatalf("err = %v, want ErrTruncatedRecord", err)
	}
}

// End to end: write an emulated transfer to a pcap file, read it back, run
// the flowrtt analysis on the decoded capture.
func TestPcapFeedsFlowRTT(t *testing.T) {
	eng := sim.NewEngine(31)
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

	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back := ToCapture(recs, ServerIP(server.Addr()))
	flows := flowrtt.Flows(back.Records)
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	info, err := flowrtt.AnalyzeValid(back.Records, flows[0])
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasRetransmit {
		t.Fatal("retransmission lost in pcap round trip")
	}
	rtts := info.SlowStartRTTs()
	if rtts[len(rtts)-1]-rtts[0] < 50*time.Millisecond {
		t.Fatal("RTT ramp not visible after pcap round trip")
	}
}

// Property: arbitrary TCP headers survive a marshal/unmarshal cycle.
func TestPropertyTCPRoundTrip(t *testing.T) {
	f := func(src, dst uint16, seq, ack uint32, flags uint8, wnd uint16) bool {
		in := TCP{SrcPort: src, DstPort: dst, Seq: seq, Ack: ack, Flags: flags, Window: wnd}
		b := in.Marshal(nil)
		var out TCP
		if err := out.Unmarshal(b); err != nil {
			return false
		}
		in.DataOff = TCPHeaderLen
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
