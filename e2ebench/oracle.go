package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// verdictLine holds the fields of one NDJSON verdict the oracle checks.
// Other fields (confidence, byte accounting, retransmit time) are not
// compared: the retransmit time is absolute capture time and moves with
// each flow's start offset.
type verdictLine struct {
	SrcIP    string  `json:"src_ip"`
	SrcPort  uint16  `json:"src_port"`
	DstIP    string  `json:"dst_ip"`
	DstPort  uint16  `json:"dst_port"`
	Class    string  `json:"class"`
	Reason   string  `json:"reason"`
	Samples  int     `json:"samples"`
	NormDiff float64 `json:"normdiff"`
	CoV      float64 `json:"cov"`
	MinRTTMs float64 `json:"min_rtt_ms"`
	MaxRTTMs float64 `json:"max_rtt_ms"`
}

func (v *verdictLine) tuple() string {
	return tupleKey(v.SrcIP, v.SrcPort, v.DstIP, v.DstPort)
}

func tupleKey(src string, sport uint16, dst string, dport uint16) string {
	return src + ":" + strconv.Itoa(int(sport)) + ">" + dst + ":" + strconv.Itoa(int(dport))
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}

// oracle holds each template's expected verdict: the verdict `ccsig
// classify -json` gives the template alone, written to its own pcap
// through the same record encoding the workload capture uses.
type oracle struct {
	expect []verdictLine // per template
}

// canonicalFlow places template t alone in a capture for the oracle.
func canonicalFlow(t int) flowSpec {
	return flowSpec{tpl: t, clientIP: 198<<24 | 51<<16 | 100<<8 | 1, port: 40000, sISN: 1000, cISN: 2000}
}

// buildOracle classifies every template alone with the real binary, one
// pcap file per template in one `ccsig classify -json` invocation.
func buildOracle(ctx context.Context, bin, model, tmp string, tpls []template) (*oracle, error) {
	args := []string{"classify", "-json", "-model", model, "-server", serverStr}
	for i := range tpls {
		f := canonicalFlow(i)
		b := pcapHeader()
		for j, r := range tpls[i].recs {
			b = appendRecord(b, int64(r.atUS), recordOf(tpls, &f, j))
		}
		path := filepath.Join(tmp, fmt.Sprintf("template-%03d.pcap", i))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return nil, err
		}
		args = append(args, path)
	}
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("oracle: ccsig classify: %v: %s", err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != len(tpls) {
		return nil, fmt.Errorf("oracle: %d verdicts for %d templates", len(lines), len(tpls))
	}
	o := &oracle{expect: make([]verdictLine, len(tpls))}
	for i, l := range lines {
		if err := json.Unmarshal(l, &o.expect[i]); err != nil {
			return nil, fmt.Errorf("oracle: template %d: %w", i, err)
		}
	}
	return o, nil
}

// expected is flow f's expected verdict: its template's, with the flow's
// own addresses and ports.
func (o *oracle) expected(f *flowSpec) verdictLine {
	v := o.expect[f.tpl]
	v.SrcIP, v.SrcPort = serverStr, serverPort
	v.DstIP, v.DstPort = ipString(f.clientIP), f.port
	return v
}

// checkResult is the oracle's verdict on one serve output.
type checkResult struct {
	flows      int
	missing    int // no line carries the flow's 4-tuple
	duplicated int // more than one line does
	wrong      int // exactly one line does, and it differs from the oracle
	unexpected int // lines whose 4-tuple belongs to no flow
	// lineOf is, per flow, the index of its single correct line, or -1.
	lineOf []int
}

func (c checkResult) failed() int { return c.missing + c.duplicated + c.wrong }

// checkLines compares serve's NDJSON output, one verdict per line,
// against the oracle. Every flow must appear exactly once with the
// expected fields; each flow fails at most once.
func checkLines(in *input, o *oracle, lines [][]byte) (checkResult, error) {
	res := checkResult{flows: len(in.flows), lineOf: make([]int, len(in.flows))}
	byTuple := make(map[string]int, len(in.flows))
	for i := range in.flows {
		f := &in.flows[i]
		byTuple[tupleKey(serverStr, serverPort, ipString(f.clientIP), f.port)] = i
		res.lineOf[i] = -1
	}
	count := make([]int, len(in.flows))
	for li, l := range lines {
		var v verdictLine
		if err := json.Unmarshal(l, &v); err != nil {
			return res, fmt.Errorf("verdict line %d: %w", li, err)
		}
		i, ok := byTuple[v.tuple()]
		if !ok {
			res.unexpected++
			continue
		}
		count[i]++
		if v == o.expected(&in.flows[i]) {
			res.lineOf[i] = li
		}
	}
	for i, n := range count {
		switch {
		case n == 0:
			res.missing++
		case n > 1:
			res.duplicated++
			res.lineOf[i] = -1
		case res.lineOf[i] < 0:
			res.wrong++
		}
	}
	return res, nil
}
