package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// procRun is one finished ccsig subprocess, timed from outside.
type procRun struct {
	wall     time.Duration // first input byte written → process exit
	maxRSSKB int64
	cpu      time.Duration // user + system CPU time
	stdout   []byte
	// lineEnd and lineAt give, per stdout line, its end offset in stdout
	// and when the harness read it (since the first byte was written).
	lineEnd []int
	lineAt  []time.Duration
	// chunkAt is when each chunkBytes-sized write of the input returned.
	chunkAt []time.Duration
	stderr  []byte
	// tickAt is when each '\r'- or '\n'-terminated piece of stderr was
	// read (ccsig train -v reports each finished run as "\rdone/total").
	tickAt []time.Duration
}

func (p *procRun) lines() [][]byte {
	out := make([][]byte, len(p.lineEnd))
	start := 0
	for i, end := range p.lineEnd {
		out[i] = p.stdout[start : end-1] // without the newline
		start = end
	}
	return out
}

// runProc starts bin with args, writes stdin in chunkBytes writes (nil
// stdin: none), reads stdout line by line as it appears, and waits for
// the process to exit; ctx ending kills it. The input is written closed-loop: each write
// returns only once the pipe has room, so a slow consumer gets less load.
func runProc(ctx context.Context, bin string, args []string, stdin []byte) (*procRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	w, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	r, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	er, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &procRun{}
	t0 := time.Now()
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		buf := make([]byte, 4096)
		for {
			n, err := er.Read(buf)
			for _, c := range buf[:n] {
				p.stderr = append(p.stderr, c)
				if c == '\r' || c == '\n' {
					p.tickAt = append(p.tickAt, time.Since(t0))
				}
			}
			if err != nil {
				return
			}
		}
	}()
	writeErr := make(chan error, 1)
	go func() {
		var err error
		for off := 0; off < len(stdin) && err == nil; off += chunkBytes {
			end := min(off+chunkBytes, len(stdin))
			_, err = w.Write(stdin[off:end])
			p.chunkAt = append(p.chunkAt, time.Since(t0))
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		writeErr <- err
	}()
	br := bufio.NewReaderSize(r, 64<<10)
	var readErr error
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			p.stdout = append(p.stdout, line...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			} else if len(line) > 0 {
				readErr = errors.New("unterminated last output line")
			}
			break
		}
		p.lineEnd = append(p.lineEnd, len(p.stdout))
		p.lineAt = append(p.lineAt, time.Since(t0))
	}
	werr := <-writeErr
	<-stderrDone
	err = cmd.Wait()
	p.wall = time.Since(t0)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSSKB = ru.Maxrss
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	switch {
	case err != nil:
		return p, fmt.Errorf("%s %s: %v: %s", bin, args[0], err, bytes.TrimSpace(p.stderr))
	case werr != nil:
		return p, fmt.Errorf("writing input: %w", werr)
	case readErr != nil:
		return p, fmt.Errorf("reading output: %w", readErr)
	}
	return p, nil
}

func serveArgs(model string) []string {
	return []string{"serve", "-model", model, "-server", serverStr}
}

// measureSetup runs the setup command n times and returns the median
// wall time in seconds.
func measureSetup(n int, run func() (*procRun, error)) (float64, error) {
	if _, err := run(); err != nil { // warm-up: page in the binary
		return 0, err
	}
	var xs []float64
	for i := 0; i < n; i++ {
		p, err := run()
		if err != nil {
			return 0, err
		}
		xs = append(xs, p.wall.Seconds())
	}
	return median(xs), nil
}

// serveStats accumulates the timed serve invocations of one run.
type serveStats struct {
	setupS    float64
	recPerS   []float64
	flowsPerS []float64
	walls     []float64
	rssMB     []float64
	latP50    []float64 // per-invocation verdict latency percentiles
	latP99    []float64
	latN      int // latency samples, all invocations
	lateFlows int // flows decided only at end of input
	check     checkResult
	attempted int
	failed    int
	ndjsonB   int
	verdicts  int
}

// timeServe runs ccsig serve over in.pcap until seconds have passed (at
// least three times) and checks every output against the oracle.
func timeServe(ctx context.Context, env *env, in *input, o *oracle, seconds float64) (*serveStats, error) {
	st := &serveStats{}
	var err error
	st.setupS, err = measureSetup(setupRuns, func() (*procRun, error) {
		return runProc(ctx, env.ccsig, serveArgs(env.model), pcapHeader())
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for n := 0; n < 3 || time.Since(start).Seconds() < seconds; n++ {
		p, err := runProc(ctx, env.ccsig, serveArgs(env.model), in.pcap)
		if err != nil {
			return nil, err
		}
		k0 := len(st.latP50)
		if err := st.add(in, o, p); err != nil {
			return nil, err
		}
		lat := ""
		if k := len(st.latP50); k > k0 {
			lat = fmt.Sprintf(", latency p50 %.2fms p99 %.2fms", st.latP50[k-1], st.latP99[k-1])
		}
		fmt.Fprintf(os.Stderr, "serve invocation %d: wall %.3fs, cpu %.3fs, %.0f records/s, %d verdicts, %d failed%s\n",
			n, p.wall.Seconds(), p.cpu.Seconds(), st.recPerS[n], len(p.lineEnd), st.check.failed(), lat)
	}
	return st, nil
}

// add checks one invocation's output and records its timings.
func (st *serveStats) add(in *input, o *oracle, p *procRun) error {
	lines := p.lines()
	chk, err := checkLines(in, o, lines)
	if err != nil {
		return err
	}
	st.check = chk
	st.attempted += chk.flows
	st.failed += chk.failed()
	st.ndjsonB += len(p.stdout)
	st.verdicts += len(lines)
	ingest := p.wall.Seconds() - st.setupS
	st.recPerS = append(st.recPerS, float64(in.records)/ingest)
	st.flowsPerS = append(st.flowsPerS, float64(len(lines))/ingest)
	st.walls = append(st.walls, p.wall.Seconds())
	st.rssMB = append(st.rssMB, float64(p.maxRSSKB)/1024)
	var lat []float64
	for i := range in.flows {
		f := &in.flows[i]
		li := chk.lineOf[i]
		if li < 0 {
			continue
		}
		if f.decideOff < 0 {
			st.lateFlows++
			continue
		}
		chunk := int((f.decideOff + recordBytes - 1) / chunkBytes)
		lat = append(lat, float64(p.lineAt[li]-p.chunkAt[chunk])/1e6)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		st.latP50 = append(st.latP50, percentile(lat, 0.50))
		st.latP99 = append(st.latP99, percentile(lat, 0.99))
		st.latN += len(lat)
	}
	return nil
}

func (st *serveStats) metrics() map[string]float64 {
	return map[string]float64{
		"records_per_s":          median(st.recPerS),
		"flows_per_s":            median(st.flowsPerS),
		"verdict_latency_p50_ms": median(st.latP50),
		"verdict_latency_p99_ms": median(st.latP99),
		"runs_per_s":             1 / median(st.walls),
		"setup_s":                st.setupS,
		"peak_rss_mb":            median(st.rssMB),
	}
}

// median of xs (sorts a copy).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile of sorted xs (NaN when empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}
