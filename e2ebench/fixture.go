package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tcpsig"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
	"tcpsig/internal/testbed"
)

// Frozen inputs. The serve workloads are built only from these fixtures
// and the seed, so a later change to the emulator cannot move serve
// inputs or verdicts. `e2ebench -regen-fixtures DIR` rewrites them; the
// output is a pure function of this file.
const (
	templatesFile = "templates.bin.gz"
	modelFile     = "model.json"
	trainCSVFile  = "train.csv"
	templateMagic = "CCSIGTPL1\n"
)

// Template kinds.
const (
	kindLong  = 0 // NDT-style speed test of a few seconds
	kindShort = 1 // short download of roughly 20-200 records
)

// tplRec is one captured packet of a template, stored relative to the
// flow: time since the template's first record, and sequence/ack numbers
// relative to the sending side's first sequence number. A generated flow
// adds its own start offset, addresses, ports and initial sequence
// numbers.
type tplRec struct {
	atUS    uint32 // µs since the template's first record
	in      bool   // client → server (ACKs); false = server → client (data)
	flags   uint8  // TCP flag bits (pcap.TCPFlag*)
	seq     uint32 // relative to the sender's initial sequence number
	ack     uint32 // relative to the peer's initial sequence number; 0 without ACK
	window  uint16
	payload uint16
}

// template is one frozen flow.
type template struct {
	name string
	kind int
	recs []tplRec
}

// readTemplates loads the frozen templates.
func readTemplates(dir string) ([]template, error) {
	f, err := os.Open(filepath.Join(dir, templatesFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", templatesFile, err)
	}
	tpls, err := decodeTemplates(bufio.NewReader(zr))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", templatesFile, err)
	}
	return tpls, nil
}

// decodeTemplates parses the template format: the magic line, a count,
// then per template its name, kind, record count and records, every
// integer an unsigned varint (record times as deltas).
func decodeTemplates(r *bufio.Reader) ([]template, error) {
	magic := make([]byte, len(templateMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != templateMagic {
		return nil, errors.New("bad template magic")
	}
	var err error
	next := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = binary.ReadUvarint(r)
		return v
	}
	n := next()
	if n > 1<<12 {
		return nil, fmt.Errorf("implausible template count %d", n)
	}
	tpls := make([]template, n)
	for i := range tpls {
		name := make([]byte, next())
		if err == nil {
			_, err = io.ReadFull(r, name)
		}
		t := &tpls[i]
		t.name = string(name)
		t.kind = int(next())
		nrec := next()
		if nrec > 1<<20 {
			return nil, fmt.Errorf("implausible record count %d", nrec)
		}
		t.recs = make([]tplRec, nrec)
		var at uint32
		for j := range t.recs {
			at += uint32(next())
			fl := next()
			t.recs[j] = tplRec{
				atUS:    at,
				in:      fl&0x100 != 0,
				flags:   uint8(fl),
				seq:     uint32(next()),
				ack:     uint32(next()),
				window:  uint16(next()),
				payload: uint16(next()),
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return tpls, nil
}

func encodeTemplates(w io.Writer, tpls []template) error {
	var b []byte
	b = append(b, templateMagic...)
	b = binary.AppendUvarint(b, uint64(len(tpls)))
	for _, t := range tpls {
		b = binary.AppendUvarint(b, uint64(len(t.name)))
		b = append(b, t.name...)
		b = binary.AppendUvarint(b, uint64(t.kind))
		b = binary.AppendUvarint(b, uint64(len(t.recs)))
		var prev uint32
		for _, r := range t.recs {
			fl := uint64(r.flags)
			if r.in {
				fl |= 0x100
			}
			b = binary.AppendUvarint(b, uint64(r.atUS-prev))
			prev = r.atUS
			b = binary.AppendUvarint(b, fl)
			b = binary.AppendUvarint(b, uint64(r.seq))
			b = binary.AppendUvarint(b, uint64(r.ack))
			b = binary.AppendUvarint(b, uint64(r.window))
			b = binary.AppendUvarint(b, uint64(r.payload))
		}
	}
	_, err := w.Write(b)
	return err
}

// templateFromCapture converts one emulated server-side capture holding a
// single flow into a template, through the emulator's own pcap writer and
// reader so the stored fields are exactly what a pcap carries.
func templateFromCapture(name string, kind int, capt *netem.Capture, server netem.Addr) (template, error) {
	var buf bytes.Buffer
	if err := pcap.NewWriter(&buf).WriteCapture(capt); err != nil {
		return template{}, err
	}
	recs, err := pcap.ReadAll(&buf)
	if err != nil {
		return template{}, err
	}
	serverIP := pcap.ServerIP(server)
	var sISN, cISN uint32
	var haveS, haveC bool
	t := template{name: name, kind: kind}
	for _, r := range recs {
		in := r.SrcIP != serverIP
		if in && !haveC {
			cISN, haveC = r.Seq, true
		}
		if !in && !haveS {
			sISN, haveS = r.Seq, true
		}
		own, peer, havePeer := sISN, cISN, haveC
		if in {
			own, peer, havePeer = cISN, sISN, haveS
		}
		tr := tplRec{
			atUS:    uint32(r.Time / time.Microsecond),
			in:      in,
			flags:   r.Flags,
			seq:     r.Seq - own,
			window:  r.Window,
			payload: uint16(r.Payload),
		}
		if r.Flags&pcap.TCPFlagACK != 0 {
			if !havePeer {
				return template{}, fmt.Errorf("%s: ACK before the peer's first segment", name)
			}
			tr.ack = r.Ack - peer
		}
		t.recs = append(t.recs, tr)
	}
	if len(t.recs) == 0 {
		return template{}, fmt.Errorf("%s: empty capture", name)
	}
	return t, nil
}

// longTemplate runs one §3 testbed throughput test and keeps its
// server-side capture.
func longTemplate(name string, cfg testbed.Config) (template, error) {
	var capt *netem.Capture
	cfg.Capture = func(c *netem.Capture) { capt = c }
	// A run whose flow fails the 10-sample filter still yields a capture;
	// serve must report it as a degraded verdict, so it is kept.
	if _, err := testbed.Run(cfg); err != nil && capt == nil {
		return template{}, fmt.Errorf("%s: %w", name, err)
	}
	// The testbed numbers hosts in creation order; server1 is the first.
	return templateFromCapture(name, kindLong, capt, 1)
}

// shortLink is an access link for the short-download templates.
type shortLink struct {
	name    string
	rateBps float64
	delay   time.Duration // one-way
	buffer  time.Duration
	loss    float64
}

// shortTemplate emulates one download of size bytes over link and keeps
// the server-side capture.
func shortTemplate(link shortLink, size int64, seed int64) (template, error) {
	eng := sim.NewEngine(seed)
	nw := netem.New(eng)
	server := nw.NewHost("server")
	client := nw.NewHost("client")
	nw.Connect(server, client,
		netem.LinkConfig{RateBps: link.rateBps, Delay: link.delay, Loss: link.loss,
			Queue: netem.NewDropTailDepth(link.rateBps, link.buffer)},
		netem.LinkConfig{RateBps: 1e9, Delay: link.delay})
	nw.ComputeRoutes()
	capt := server.EnableCapture()
	tcpsim.StartDownload(client, server, 40000, 443, tcpsim.Config{}, size, 0)
	eng.Run()
	name := fmt.Sprintf("short/%s/%dk", link.name, size/1000)
	return templateFromCapture(name, kindShort, capt, server.Addr())
}

// regenFixtures writes every fixture into dir: the long and short flow
// templates, the quick-testbed training set and the model trained on it.
func regenFixtures(dir string) error {
	var tpls []template
	for i, c := range longConfigs() {
		t, err := longTemplate(c.name, c.cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "template %2d %-36s %5d records\n", i, t.name, len(t.recs))
		tpls = append(tpls, t)
	}
	links := []shortLink{
		{name: "10M-20ms-buf10ms", rateBps: 10e6, delay: 10 * time.Millisecond, buffer: 10 * time.Millisecond},
		{name: "50M-40ms-buf50ms", rateBps: 50e6, delay: 20 * time.Millisecond, buffer: 50 * time.Millisecond},
		{name: "5M-30ms-loss2pct", rateBps: 5e6, delay: 15 * time.Millisecond, buffer: 100 * time.Millisecond, loss: 0.02},
	}
	seed := int64(100)
	for _, l := range links {
		for _, size := range []int64{8_000, 20_000, 40_000, 80_000, 130_000} {
			seed++
			t, err := shortTemplate(l, size, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "template %2d %-36s %5d records\n", len(tpls), t.name, len(t.recs))
			tpls = append(tpls, t)
		}
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := encodeTemplates(zw, tpls); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, templatesFile), buf.Bytes(), 0o644); err != nil {
		return err
	}

	// The model is what `ccsig train -quick -seed 1` produces.
	examples, err := tcpsig.TestbedExamples(tcpsig.TrainTestbedOptions{Quick: true, Seed: 1})
	if err != nil {
		return err
	}
	buf.Reset()
	if err := tcpsig.WriteExamplesCSV(&buf, examples); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, trainCSVFile), buf.Bytes(), 0o644); err != nil {
		return err
	}
	clf, err := tcpsig.Train(examples, tcpsig.TrainOptions{MinLeaf: 2, Threshold: 0.8})
	if err != nil {
		return err
	}
	return clf.SaveFile(filepath.Join(dir, modelFile))
}

type namedConfig struct {
	name string
	cfg  testbed.Config
}

// longConfigs is the §3 grid slice the long templates come from: two
// access rates, two latencies and two buffers, each once without and once
// with the 100 TGCong flows that congest the interconnect.
func longConfigs() []namedConfig {
	var out []namedConfig
	seed := int64(1)
	for _, cong := range []int{0, 100} {
		for _, rate := range []float64{10, 20} {
			for _, lat := range []time.Duration{20 * time.Millisecond, 40 * time.Millisecond} {
				for _, buf := range []time.Duration{20 * time.Millisecond, 100 * time.Millisecond} {
					scen := "self"
					cfg := testbed.Config{
						Access: testbed.AccessParams{
							RateMbps: rate, Latency: lat, Jitter: 2 * time.Millisecond, Buffer: buf,
						},
						TransCross: true,
						Duration:   2 * time.Second,
						Seed:       seed,
					}
					if cong > 0 {
						scen = "external"
						cfg.CongFlows = cong
						cfg.WarmUp = 4 * time.Second
					}
					seed++
					out = append(out, namedConfig{
						name: fmt.Sprintf("long/%s/%gM-%s-buf%s", scen, rate, lat, buf),
						cfg:  cfg,
					})
				}
			}
		}
	}
	return out
}
