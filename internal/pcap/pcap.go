package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

const (
	magicMicroseconds = 0xa1b2c3d4
	magicSwapped      = 0xd4c3b2a1
	magicNanoseconds  = 0xa1b23c4d
	magicNanoSwapped  = 0x4d3cb2a1
	versionMajor      = 2
	versionMinor      = 4
	linkTypeEthernet  = 1
	defaultSnapLen    = 65535
)

// Writer emits a libpcap file of Ethernet/IPv4/TCP frames.
type Writer struct {
	w       *bufio.Writer
	snapLen int
	started bool
	scratch []byte
}

// NewWriter wraps w; the file header is written lazily on the first packet
// (or by Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), snapLen: defaultSnapLen}
}

func (w *Writer) writeHeader() error {
	if w.started {
		return nil
	}
	w.started = true
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w.snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	return err
}

// addrToIP maps an emulator address into 10.0.0.0/8: its low 24 bits
// become the host part. Only Writer applies the mapping; reading a file
// back keys flows on the full address, so a written emulator flow is keyed
// on IPToAddr(addrToIP(a)), not on a.
func addrToIP(a netem.Addr) uint32 { return 10<<24 | uint32(a)&(1<<24-1) }

// IPToAddr returns the flow-key address of a capture IPv4 address: all 32
// bits, so flows that differ in any octet never share a key. Emulator
// addresses come back through addrToIP's 10.0.0.0/8 mapping, i.e. as
// IPToAddr(ServerIP(a)).
func IPToAddr(ip uint32) netem.Addr { return netem.Addr(ip) }

// ParseIPv4 parses a dotted-quad address into its capture form.
func ParseIPv4(s string) (uint32, error) {
	// netip.ParseAddr rejects trailing junk, empty octets and out-of-range
	// values that fmt.Sscanf-style parsing silently accepts.
	addr, err := netip.ParseAddr(s)
	if err != nil || !addr.Is4() {
		return 0, fmt.Errorf("%w %q", ErrBadIPv4, s)
	}
	b := addr.As4()
	return binary.BigEndian.Uint32(b[:]), nil
}

// FormatIPv4 renders a capture IPv4 address as a dotted quad.
func FormatIPv4(ip uint32) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ip)
	return netip.AddrFrom4(b).String()
}

// WritePacket appends one emulator packet at time ts. Payload bytes are not
// stored (zero snap beyond headers), like a tcpdump -s 54 capture; the IP
// total length preserves the payload size for analysis.
func (w *Writer) WritePacket(ts sim.Time, p *netem.Packet) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	frame := w.scratch[:0]
	eth := Ethernet{EtherType: EtherTypeIPv4}
	frame = eth.Marshal(frame)
	ip := IPv4{
		TotalLen: uint16(IPv4HeaderLen + TCPHeaderLen + p.Seg.PayloadLen),
		Protocol: ProtoTCP,
		Src:      addrToIP(p.Flow.SrcAddr),
		Dst:      addrToIP(p.Flow.DstAddr),
	}
	frame = ip.Marshal(frame)
	var fl uint8
	if p.Seg.Flags&netem.FlagSYN != 0 {
		fl |= TCPFlagSYN
	}
	if p.Seg.Flags&netem.FlagACK != 0 {
		fl |= TCPFlagACK
	}
	if p.Seg.Flags&netem.FlagFIN != 0 {
		fl |= TCPFlagFIN
	}
	if p.Seg.Flags&netem.FlagRST != 0 {
		fl |= TCPFlagRST
	}
	wnd := p.Seg.Window
	if wnd > 65535 {
		wnd = 65535
	}
	tcp := TCP{
		SrcPort: uint16(p.Flow.SrcPort),
		DstPort: uint16(p.Flow.DstPort),
		Seq:     p.Seg.Seq,
		Ack:     p.Seg.Ack,
		Flags:   fl,
		Window:  uint16(wnd),
	}
	frame = tcp.Marshal(frame)
	w.scratch = frame

	var rec [16]byte
	sec := uint32(ts / time.Second)
	usec := uint32((ts % time.Second) / time.Microsecond)
	binary.LittleEndian.PutUint32(rec[0:4], sec)
	binary.LittleEndian.PutUint32(rec[4:8], usec)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)+p.Seg.PayloadLen))
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := w.w.Write(frame)
	return err
}

// WriteCapture dumps a whole host capture.
func (w *Writer) WriteCapture(c *netem.Capture) error {
	for i := range c.Records {
		rec := &c.Records[i]
		if err := w.WritePacket(rec.At, &rec.Pkt); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Flush writes any buffered data (and the header, for empty captures).
func (w *Writer) Flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Record is one packet read back from a pcap file.
type Record struct {
	Time    time.Duration // relative to the first packet in the file
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Payload int // payload length derived from the IP total length
}

// MaxFrameBytes is the largest captured frame a Reader will accept. Real
// captures never exceed a 256 KiB snap length (tcpdump's modern default);
// anything bigger in a record header is a corrupt or hostile file, and
// honouring it would let a 16-byte record claim a multi-gigabyte
// allocation.
const MaxFrameBytes = 1 << 18

// Typed ingestion errors, so callers can distinguish hostile or damaged
// input from I/O failure with errors.Is.
var (
	// ErrBadMagic marks files that do not start with a libpcap magic
	// number.
	ErrBadMagic = errors.New("pcap: bad magic")

	// ErrTruncatedRecord marks files that end mid-header or mid-frame.
	ErrTruncatedRecord = errors.New("pcap: truncated record")

	// ErrImpossibleLength marks record headers whose captured length is
	// impossible: larger than MaxFrameBytes, larger than the file's snap
	// length, or larger than the original packet length.
	ErrImpossibleLength = errors.New("pcap: impossible record length")

	// ErrUnsupportedLinkType marks well-formed files whose frames are not
	// Ethernet, the only link layer the parser understands.
	ErrUnsupportedLinkType = errors.New("pcap: unsupported link type")

	// ErrBadIPv4 marks an address string that is not a dotted-quad IPv4
	// address.
	ErrBadIPv4 = errors.New("bad IPv4")
)

// Reader parses libpcap files of Ethernet/IPv4/TCP frames. Both
// microsecond- and nanosecond-resolution files are accepted, in either byte
// order. Hostile input (bad magic, truncated records, absurd lengths)
// yields typed errors, never panics or unbounded allocations.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	nanos   bool
	started bool
	first   time.Duration
	haveT0  bool
	snapLen uint32
	buf     []byte
	skipped int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (r *Reader) readHeader() error {
	var hdr [24]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: file header", ErrTruncatedRecord)
		}
		return err
	}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicroseconds:
		r.order = binary.LittleEndian
	case magicSwapped:
		r.order = binary.BigEndian
	case magicNanoseconds:
		r.order = binary.LittleEndian
		r.nanos = true
	case magicNanoSwapped:
		r.order = binary.BigEndian
		r.nanos = true
	default:
		return fmt.Errorf("%w: %#x", ErrBadMagic, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if lt := r.order.Uint32(hdr[20:24]); lt != linkTypeEthernet {
		return fmt.Errorf("%w %d", ErrUnsupportedLinkType, lt)
	}
	r.snapLen = r.order.Uint32(hdr[16:20])
	r.started = true
	return nil
}

// Next returns the next TCP record, io.EOF at end of file. Frames that are
// not IPv4/TCP, or fail to decode, are skipped and counted in Skipped.
func (r *Reader) Next() (Record, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return Record{}, err
		}
	}
	for {
		var rec [16]byte
		if _, err := io.ReadFull(r.r, rec[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("%w: partial record header", ErrTruncatedRecord)
			}
			return Record{}, err
		}
		sec := r.order.Uint32(rec[0:4])
		usec := r.order.Uint32(rec[4:8])
		incl := r.order.Uint32(rec[8:12])
		orig := r.order.Uint32(rec[12:16])
		// Validate before allocating: a 16-byte header must not be able
		// to demand gigabytes.
		if incl > MaxFrameBytes || incl > orig {
			return Record{}, fmt.Errorf("%w: captured %d bytes (original %d)", ErrImpossibleLength, incl, orig)
		}
		if r.snapLen > 0 && incl > r.snapLen {
			return Record{}, fmt.Errorf("%w: captured %d bytes exceeds snap length %d", ErrImpossibleLength, incl, r.snapLen)
		}
		if int(incl) > cap(r.buf) {
			r.buf = make([]byte, incl)
		}
		frame := r.buf[:incl]
		if _, err := io.ReadFull(r.r, frame); err != nil {
			return Record{}, fmt.Errorf("%w: frame cut short: %v", ErrTruncatedRecord, err)
		}
		out, err := decodeFrame(frame)
		if err != nil {
			r.skipped++
			continue
		}
		frac := time.Duration(usec) * time.Microsecond
		if r.nanos {
			frac = time.Duration(usec) * time.Nanosecond
		}
		ts := time.Duration(sec)*time.Second + frac
		if !r.haveT0 {
			r.first = ts
			r.haveT0 = true
		}
		out.Time = ts - r.first
		return out, nil
	}
}

// Skipped returns the number of frames Next has passed over so far because
// they were not IPv4/TCP or failed to decode.
func (r *Reader) Skipped() int { return r.skipped }

func decodeFrame(frame []byte) (Record, error) {
	var eth Ethernet
	if err := eth.Unmarshal(frame); err != nil {
		return Record{}, err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return Record{}, ErrNotTCP
	}
	b := frame[EthernetHeaderLen:]
	var ip IPv4
	if err := ip.Unmarshal(b); err != nil {
		return Record{}, err
	}
	if ip.Protocol != ProtoTCP {
		return Record{}, ErrNotTCP
	}
	ihl := ipv4HeaderLen(b)
	tb := b[ihl:]
	var tcp TCP
	if err := tcp.Unmarshal(tb); err != nil {
		return Record{}, err
	}
	payload := int(ip.TotalLen) - ihl - tcp.DataOff
	if payload < 0 {
		payload = 0
	}
	return Record{
		SrcIP:   ip.Src,
		DstIP:   ip.Dst,
		SrcPort: tcp.SrcPort,
		DstPort: tcp.DstPort,
		Seq:     tcp.Seq,
		Ack:     tcp.Ack,
		Flags:   tcp.Flags,
		Window:  tcp.Window,
		Payload: payload,
	}, nil
}

// ReadAll drains the file.
func ReadAll(rd io.Reader) ([]Record, error) {
	r := NewReader(rd)
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// RecordToCapture converts one pcap record into an emulator-style capture
// record as seen from serverIP: frames sourced at serverIP are outgoing,
// others incoming. It lets callers stream a capture off a Reader without
// materializing the []Record slice first.
func RecordToCapture(rec Record, serverIP uint32) netem.CaptureRecord {
	dir := netem.DirIn
	if rec.SrcIP == serverIP {
		dir = netem.DirOut
	}
	var fl uint8
	if rec.Flags&TCPFlagSYN != 0 {
		fl |= netem.FlagSYN
	}
	if rec.Flags&TCPFlagACK != 0 {
		fl |= netem.FlagACK
	}
	if rec.Flags&TCPFlagFIN != 0 {
		fl |= netem.FlagFIN
	}
	if rec.Flags&TCPFlagRST != 0 {
		fl |= netem.FlagRST
	}
	return netem.CaptureRecord{
		At:  sim.Time(rec.Time),
		Dir: dir,
		Pkt: netem.Packet{
			Flow: netem.FlowKey{
				SrcAddr: IPToAddr(rec.SrcIP),
				DstAddr: IPToAddr(rec.DstIP),
				SrcPort: netem.Port(rec.SrcPort),
				DstPort: netem.Port(rec.DstPort),
			},
			Seg: netem.Segment{
				Seq:        rec.Seq,
				Ack:        rec.Ack,
				Flags:      fl,
				Window:     uint32(rec.Window),
				PayloadLen: rec.Payload,
			},
			Size: rec.Payload + netem.HeaderBytes,
		},
	}
}

// ToCapture converts pcap records into an emulator-style capture as seen
// from serverIP. The result can be fed straight to the flowrtt analysis.
func ToCapture(records []Record, serverIP uint32) *netem.Capture {
	c := &netem.Capture{}
	for _, rec := range records {
		c.Records = append(c.Records, RecordToCapture(rec, serverIP))
	}
	return c
}

// ServerIP returns the pcap-file IP Writer gives an emulator address, for
// use with ToCapture on files produced by Writer.
func ServerIP(a netem.Addr) uint32 { return addrToIP(a) }
