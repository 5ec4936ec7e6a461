package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
)

// serverIP is the data sender every generated flow shares (192.0.2.10,
// a documentation address); serverPort is its service port.
const (
	serverIP   uint32 = 192<<24 | 0<<16 | 2<<8 | 10
	serverPort uint16 = 443
	serverStr         = "192.0.2.10"

	// chunkBytes is how much of the capture the harness hands to the
	// pipe per write; verdict latency is timed from the write that
	// carries a flow's deciding record.
	chunkBytes = 16 << 10

	// captureEpoch is the first record's pcap timestamp, in seconds.
	captureEpoch = 1_700_000_000

	pcapHeaderBytes = 24
	frameBytes      = pcap.EthernetHeaderLen + pcap.IPv4HeaderLen + pcap.TCPHeaderLen
	recordBytes     = 16 + frameBytes
)

// flowSpec is one generated flow: a template placed at a start offset
// with its own client address, client port and initial sequence numbers.
type flowSpec struct {
	tpl      int
	clientIP uint32
	port     uint16
	sISN     uint32
	cISN     uint32
	startUS  int64

	// decideOff is the capture byte offset of the record that ends the
	// flow's slow start (-1 when the flow is decided only at end of
	// input); filled in by buildCapture.
	decideOff int64
}

// shape describes one serve workload's input.
type shape struct {
	flows    int
	kind     int     // which templates to draw from
	windowS  float64 // flow start offsets are uniform over [0, windowS)
	weighted bool    // template shares ∝ 1/records instead of equal
}

// shapes are the serve workloads' inputs at scale 1.
var shapes = map[string]shape{
	"serve-long-flows":  {flows: 1000, kind: kindLong, windowS: 60},
	"serve-short-flows": {flows: 70000, kind: kindShort, windowS: 120, weighted: true},
}

// input is one generated capture and everything the harness knows about
// it.
type input struct {
	tpls    []template
	flows   []flowSpec
	pcap    []byte
	records int
	// decide[t] is the index within template t of the record that ends
	// its slow start, or -1.
	decide []int
}

// planFlows draws the flows of a capture from the seed. How often each
// template occurs is fixed by the shape, so every seed does the same
// work; the seed picks which flow gets which template, the addresses,
// ports, initial sequence numbers and start offsets. Client addresses
// cover the whole IPv4 unicast space; the (address, port) pair is unique
// per flow.
func planFlows(tpls []template, sh shape, seed int64) []flowSpec {
	rng := rand.New(rand.NewSource(seed))
	order := templateMix(tpls, sh)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	seen := make(map[uint64]bool, sh.flows)
	flows := make([]flowSpec, 0, sh.flows)
	for len(flows) < sh.flows {
		f := flowSpec{
			tpl:      order[len(flows)],
			clientIP: unicastIPv4(rng),
			port:     uint16(1024 + rng.Intn(65536-1024)),
			sISN:     rng.Uint32(),
			cISN:     rng.Uint32(),
			startUS:  int64(rng.Float64() * sh.windowS * 1e6),
		}
		id := uint64(f.clientIP)<<16 | uint64(f.port)
		if seen[id] || f.clientIP == serverIP {
			continue
		}
		seen[id] = true
		flows = append(flows, f)
	}
	return flows
}

// templateMix lists the template of every flow, in template order: each
// template of the shape's kind gets its share of sh.flows (equal, or ∝
// 1/records when weighted), rounded by largest remainder.
func templateMix(tpls []template, sh shape) []int {
	var pool []int
	var weights []float64
	total := 0.0
	for i, t := range tpls {
		if t.kind != sh.kind {
			continue
		}
		w := 1.0
		if sh.weighted {
			w = 1 / float64(len(t.recs))
		}
		pool = append(pool, i)
		weights = append(weights, w)
		total += w
	}
	if len(pool) == 0 {
		panic(fmt.Sprintf("no templates of kind %d", sh.kind))
	}
	counts := make([]int, len(pool))
	rem := make([]float64, len(pool))
	left := sh.flows
	for k, w := range weights {
		exact := float64(sh.flows) * w / total
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		left -= counts[k]
	}
	byRem := make([]int, len(pool))
	for k := range byRem {
		byRem[k] = k
	}
	sort.SliceStable(byRem, func(a, b int) bool { return rem[byRem[a]] > rem[byRem[b]] })
	for k := 0; k < left; k++ {
		counts[byRem[k]]++
	}
	out := make([]int, 0, sh.flows)
	for k, n := range counts {
		for ; n > 0; n-- {
			out = append(out, pool[k])
		}
	}
	return out
}

// unicastIPv4 draws an address from 1.0.0.0–223.255.255.255 outside
// 127.0.0.0/8.
func unicastIPv4(rng *rand.Rand) uint32 {
	for {
		a := rng.Uint32()
		if first := a >> 24; first >= 1 && first <= 223 && first != 127 {
			return a
		}
	}
}

// recordOf renders record j of flow f as the pcap record serve reads.
func recordOf(tpls []template, f *flowSpec, j int) pcap.Record {
	r := tpls[f.tpl].recs[j]
	rec := pcap.Record{
		Flags:   r.flags,
		Window:  r.window,
		Payload: int(r.payload),
	}
	own, peer := f.sISN, f.cISN
	if r.in {
		own, peer = f.cISN, f.sISN
		rec.SrcIP, rec.DstIP = f.clientIP, serverIP
		rec.SrcPort, rec.DstPort = f.port, serverPort
	} else {
		rec.SrcIP, rec.DstIP = serverIP, f.clientIP
		rec.SrcPort, rec.DstPort = serverPort, f.port
	}
	rec.Seq = r.seq + own
	if r.flags&pcap.TCPFlagACK != 0 {
		rec.Ack = r.ack + peer
	}
	return rec
}

// appendRecord appends one pcap record (header and Ethernet/IPv4/TCP
// frame, payload not captured) at timestamp us.
func appendRecord(b []byte, us int64, rec pcap.Record) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(captureEpoch+us/1e6))
	b = binary.LittleEndian.AppendUint32(b, uint32(us%1e6))
	b = binary.LittleEndian.AppendUint32(b, frameBytes)
	b = binary.LittleEndian.AppendUint32(b, uint32(frameBytes+rec.Payload))
	eth := pcap.Ethernet{EtherType: pcap.EtherTypeIPv4}
	b = eth.Marshal(b)
	ip := pcap.IPv4{
		TotalLen: uint16(pcap.IPv4HeaderLen + pcap.TCPHeaderLen + rec.Payload),
		Protocol: pcap.ProtoTCP,
		Src:      rec.SrcIP,
		Dst:      rec.DstIP,
	}
	b = ip.Marshal(b)
	tcp := pcap.TCP{
		SrcPort: rec.SrcPort, DstPort: rec.DstPort,
		Seq: rec.Seq, Ack: rec.Ack, Flags: rec.Flags, Window: rec.Window,
	}
	return tcp.Marshal(b)
}

// pcapHeader is the libpcap file header: microsecond timestamps,
// Ethernet link type, 65535-byte snap length.
func pcapHeader() []byte {
	var h [pcapHeaderBytes]byte
	binary.LittleEndian.PutUint32(h[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(h[4:6], 2)
	binary.LittleEndian.PutUint16(h[6:8], 4)
	binary.LittleEndian.PutUint32(h[16:20], 65535)
	binary.LittleEndian.PutUint32(h[20:24], 1)
	return h[:]
}

// cursor is a flow's next record in the time-ordered merge.
type cursor struct {
	flow int
	j    int
	us   int64
}

type mergeHeap []cursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(a, b int) bool {
	if h[a].us != h[b].us {
		return h[a].us < h[b].us
	}
	return h[a].flow < h[b].flow
}
func (h mergeHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(cursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// buildCapture generates the workload's capture for seed: the flows'
// records merged in time order into one pcap byte slice.
func buildCapture(tpls []template, sh shape, seed int64) *input {
	in := &input{tpls: tpls, flows: planFlows(tpls, sh, seed), decide: decideIndexes(tpls)}
	n := 0
	for _, f := range in.flows {
		n += len(tpls[f.tpl].recs)
	}
	in.records = n
	b := make([]byte, 0, pcapHeaderBytes+n*recordBytes)
	b = append(b, pcapHeader()...)

	h := make(mergeHeap, 0, len(in.flows))
	for i, f := range in.flows {
		in.flows[i].decideOff = -1
		h = append(h, cursor{flow: i, us: f.startUS})
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := &h[0]
		f := &in.flows[c.flow]
		if c.j == in.decide[f.tpl] {
			f.decideOff = int64(len(b))
		}
		b = appendRecord(b, c.us, recordOf(tpls, f, c.j))
		c.j++
		if recs := tpls[f.tpl].recs; c.j < len(recs) {
			c.us = f.startUS + int64(recs[c.j].atUS)
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	in.pcap = b
	return in
}

// decideIndexes finds, per template, the record on which
// flowrtt.Tracker.Observe reports the end of slow start, by feeding the
// template alone through the same pcap record conversion serve uses.
func decideIndexes(tpls []template) []int {
	out := make([]int, len(tpls))
	for i := range tpls {
		out[i] = -1
		f := flowSpec{tpl: i, clientIP: 10<<24 | 1, port: 40000}
		tr := flowrtt.NewTracker(dataKey(&f))
		for j := range tpls[i].recs {
			cr := captureRecord(tpls, &f, j)
			if tr.Observe(&cr) {
				out[i] = j
				break
			}
		}
	}
	return out
}

// dataKey is the flow key serve's table assigns to f's data direction.
func dataKey(f *flowSpec) netem.FlowKey {
	return netem.FlowKey{
		SrcAddr: pcap.IPToAddr(serverIP), DstAddr: pcap.IPToAddr(f.clientIP),
		SrcPort: netem.Port(serverPort), DstPort: netem.Port(f.port),
	}
}

// captureRecord converts a generated record the way serve does.
func captureRecord(tpls []template, f *flowSpec, j int) netem.CaptureRecord {
	cr := pcap.RecordToCapture(recordOf(tpls, f, j), serverIP)
	cr.At = sim.Time(f.startUS+int64(tpls[f.tpl].recs[j].atUS)) * 1000
	return cr
}
