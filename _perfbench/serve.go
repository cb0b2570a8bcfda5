package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"prodsynth"
	"prodsynth/internal/serve"
)

const (
	// serveBatch is the number of consecutive incoming offers per request.
	serveBatch = 64
	// serveBodies is how many distinct request bodies are cycled through.
	serveBodies = 128
	// serveConns is the connection count of the load generator: one per
	// core of the 2-core reference machine.
	serveConns = 2
	// serveLimitMS is the latency limit on the tail percentile of a rung.
	serveLimitMS = 50.0
	// serveWarmup requests go out one by one before the ladder, untimed.
	serveWarmup = 32
	// serveMaxLateMS bounds the generator's p99 dispatch lateness on the
	// nominal rung; beyond half the latency limit the latencies would
	// measure the generator, so the run is invalid.
	serveMaxLateMS = serveLimitMS / 2
)

// serveLadder is the open loop's fixed rate ladder in requests per
// second, ascending, and the share of --seconds each rung runs for. On
// the 2-core reference machine the daemon completes about 200 requests
// per second, so the top rung is above capacity and the nominal rung is
// about 40% of it. The nominal rung runs twice as long, so its tail rests
// on more than 300 samples, and so does the top rung, whose throughput
// is the daemon's capacity.
var serveLadder = []struct{ rate, share float64 }{
	{40, 1}, {80, 2}, {140, 1}, {200, 1}, {300, 2},
}

// serveNominal indexes the rung latency is reported at.
const serveNominal = 1

// The daemon runs in a child process, so the load generator's schedule
// does not wait on the daemon's goroutines for a processor. The child
// prints a daemonReady line once it serves, then answers one JSON line
// per command read from its standard input; closing that input drains
// and stops it.
const (
	cmdStart   = "start"   // begin a timed region: reset heap peak and counters
	cmdStop    = "stop"    // end it: reply daemonStats
	cmdLibrary = "library" // time SynthesizeContext on every body: reply daemonLibrary
)

// daemonReady is the child's first line: where it listens, what set-up
// learned, and the quality of the library results the bodies must get.
type daemonReady struct {
	Addr    string             `json:"addr"`
	LearnS  float64            `json:"learn_s"`
	Bodies  string             `json:"bodies"` // file holding bodies and expected responses
	Quality map[string]float64 `json:"quality"`
}

// daemonStats is the child's reply to cmdStop.
type daemonStats struct {
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	GCCPUS       float64 `json:"gc_cpu_s"`
	AllocMB      float64 `json:"alloc_mb"`
	InflightPeak int64   `json:"inflight_peak"`
	Shed         uint64  `json:"shed"`
}

// daemonLibrary is the child's reply to cmdLibrary.
type daemonLibrary struct {
	MedianMS float64 `json:"median_ms"`
}

// runDaemon is the child: it generates the marketplace, learns, boots
// internal/serve on a loopback port, writes every request body with the
// library's response to it, and serves until its input closes.
func runDaemon(ctx context.Context, seed int64, workDir string) error {
	m := generate(seed)
	l, err := learnCold(ctx, m)
	if err != nil {
		return err
	}
	sys := prodsynth.NewSystem(m.Catalog, l.model)
	srv := serve.New(sys, serve.Options{Logger: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Run(runCtx, ln) }()
	defer func() {
		stop()
		<-done
	}()

	var offers [][]prodsynth.Offer
	var pages []prodsynth.MapFetcher
	var products []prodsynth.Synthesized
	var file bytes.Buffer
	n := min(serveBodies, len(m.IncomingOffers)/serveBatch)
	for b := 0; b < n; b++ {
		batch := m.IncomingOffers[b*serveBatch : (b+1)*serveBatch]
		pf := make(prodsynth.MapFetcher, len(batch))
		for _, o := range batch {
			if html, ok := m.Pages[o.URL]; ok {
				pf[o.URL] = html
			}
		}
		wire := serve.WireOffers(batch)
		body, err := json.Marshal(serve.SynthesizeRequest{Offers: wire, Pages: serve.WirePages(pf)})
		if err != nil {
			return err
		}
		// The reference goes through the wire conversion too, so it sees
		// exactly the offers the daemon decodes.
		in := serve.OffersFromWire(wire)
		res, err := sys.SynthesizeContext(ctx, in, pf)
		if err != nil {
			return fmt.Errorf("reference synthesis: %w", err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(serve.ResponseFromResult(res)); err != nil {
			return err
		}
		writeFrame(&file, body)
		writeFrame(&file, want.Bytes())
		offers, pages = append(offers, in), append(pages, pf)
		products = append(products, res.Products...)
	}
	path := filepath.Join(workDir, "serve-bodies.bin")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		return err
	}
	quality := make(map[string]float64)
	setQuality(quality, m, l.model, products)

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(daemonReady{Addr: ln.Addr().String(), LearnS: l.elapsed.Seconds(), Bodies: path,
		Quality: quality}); err != nil {
		return err
	}

	inflight := srv.Metrics().Gauge("synthd_inflight_requests", "")
	shed := srv.Metrics().Counter("synthd_shed_total", "")
	var heap *heapSampler
	var stopPoll chan struct{}
	var peak chan int64
	var before goCounters
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var reply any
		switch in.Text() {
		case cmdStart:
			// Start from a collected heap, so set-up garbage does not
			// count toward the ladder's figures.
			runtime.GC()
			heap, before = startHeapSampler(), readGoCounters()
			stopPoll, peak = make(chan struct{}), make(chan int64, 1)
			go pollGauge(inflight, stopPoll, peak)
			reply = struct{}{}
		case cmdStop:
			if heap == nil {
				return errors.New("stop before start")
			}
			close(stopPoll)
			c := make(map[string]float64)
			before.since(c)
			reply = daemonStats{PeakHeapMB: heap.peakMB(), GCCPUS: c["go.gc_cpu_s"], AllocMB: c["go.alloc_mb"],
				InflightPeak: <-peak, Shed: shed.Value()}
			heap = nil
		case cmdLibrary:
			var times []float64
			for b := range offers {
				start := time.Now()
				if _, err := sys.SynthesizeContext(ctx, offers[b], pages[b]); err != nil {
					return err
				}
				times = append(times, ms(time.Since(start)))
			}
			reply = daemonLibrary{MedianMS: median(times)}
		default:
			return fmt.Errorf("unknown command %q", in.Text())
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

// pollGauge samples g until stop closes, then sends the peak.
func pollGauge(g *serve.Gauge, stop <-chan struct{}, peak chan<- int64) {
	var p int64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		p = max(p, g.Value())
		select {
		case <-stop:
			peak <- p
			return
		case <-tick.C:
		}
	}
}

func writeFrame(w *bytes.Buffer, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	w.Write(n[:])
	w.Write(b)
}

func readFrames(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, errors.New("truncated frame header")
		}
		n := int(binary.LittleEndian.Uint32(data))
		if len(data) < 4+n {
			return nil, errors.New("truncated frame")
		}
		out = append(out, data[4:4+n])
		data = data[4+n:]
	}
	return out, nil
}

// daemon is the benchmark's handle on a child daemon process.
type daemon struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	ready  daemonReady
	base   string
	client *http.Client
	bodies [][]byte
	want   [][]byte
}

// startDaemon starts the child and waits until it serves.
func startDaemon(ctx context.Context, cfg runConfig) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--serve-daemon", "--seed", strconv.FormatInt(cfg.seed, 10), "--work-dir", cfg.workDir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	if err := d.read(&d.ready); err != nil {
		d.close()
		return nil, fmt.Errorf("daemon start: %w", err)
	}
	data, err := os.ReadFile(d.ready.Bodies)
	if err == nil {
		var frames [][]byte
		if frames, err = readFrames(data); err == nil {
			for i := 0; i+1 < len(frames); i += 2 {
				d.bodies = append(d.bodies, frames[i])
				d.want = append(d.want, frames[i+1])
			}
		}
	}
	if err != nil || len(d.bodies) == 0 {
		d.close()
		return nil, fmt.Errorf("daemon bodies: %v", err)
	}
	d.base = "http://" + d.ready.Addr
	d.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
	}
	return d, nil
}

func (d *daemon) read(into any) error {
	line, err := d.stdout.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, into)
}

// call sends one command and decodes the reply.
func (d *daemon) call(cmd string, into any) error {
	if _, err := io.WriteString(d.stdin, cmd+"\n"); err != nil {
		return err
	}
	return d.read(into)
}

// close stops the child (closing its input makes it drain and exit) and
// waits for it.
func (d *daemon) close() {
	d.stdin.Close()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.cmd.Wait()
}

// post sends body b and checks that the daemon answers 200 with exactly
// the library's response.
func (d *daemon) post(ctx context.Context, b int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/synthesize", bytes.NewReader(d.bodies[b]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("body %d: status %d", b, resp.StatusCode)
	case !bytes.Equal(data, d.want[b]):
		return fmt.Errorf("body %d: response differs from the library result", b)
	}
	return nil
}

// warmup sends serveWarmup requests one at a time so connections and
// caches are warm before the ladder.
func (d *daemon) warmup(ctx context.Context, out *outcome) {
	for i := 0; i < serveWarmup; i++ {
		out.attempted++
		if err := d.post(ctx, i%len(d.bodies)); err != nil {
			out.failed++
			out.fail("warm-up: %v", err)
		}
	}
}

// ladder runs every rung of serveLadder for its share of total, between a start and a stop command so the daemon reports its heap and
// GC figures for exactly that region. With a tracer, each request gets a
// span from its due time to its response, with the wait for a
// connection and the round trip as children.
func (d *daemon) ladder(ctx context.Context, total time.Duration, out *outcome, tr *tracer) ([]rungResult, daemonStats, error) {
	var stats daemonStats
	if err := d.call(cmdStart, &struct{}{}); err != nil {
		return nil, stats, err
	}
	shares := 0.0
	for _, r := range serveLadder {
		shares += r.share
	}
	var rungs []rungResult
	var mu sync.Mutex
	var firstErr error
	for r, rung := range serveLadder {
		parent := tr.begin(fmt.Sprintf("rung.%g", rung.rate), 0, r)
		dur := time.Duration(float64(total) * rung.share / shares)
		res := openLoop(ctx, rung.rate, dur, serveConns, func(ctx context.Context, seq int, due time.Time) error {
			sent := time.Now()
			err := d.post(ctx, seq%len(d.bodies))
			if tr != nil {
				done := time.Now()
				unit := r*1_000_000 + seq
				req := tr.record("request", parent, unit, due, done)
				tr.record("loadgen.queue", req, unit, due, sent)
				tr.record("serve.roundtrip", req, unit, sent, done)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			return err
		})
		tr.end(parent)
		out.attempted += res.Sent
		out.failed += res.Failed
		rungs = append(rungs, res)
	}
	if firstErr != nil {
		out.fail("%v", firstErr)
	}
	err := d.call(cmdStop, &stats)
	return rungs, stats, err
}

// maxRPS is the highest rung that meets the latency limit with no
// failures and no growing backlog (0 if none does).
func maxRPS(rungs []rungResult) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.meets(serveLimitMS) {
			best = r.Rate
		}
	}
	return best
}

// printRungs writes the per-rung table.
func printRungs(rungs []rungResult) {
	fmt.Printf("  %8s %6s %6s %9s %17s %8s %9s %11s\n", "rate/s", "sent", "failed", "p50_ms", "tail_ms", "backlog", "done/s", "late_p99_ms")
	for _, r := range rungs {
		pct, t := tail(r.Latency)
		grow := "stable"
		if backlogGrowing(r.Backlog) {
			grow = "growing"
		}
		fmt.Printf("  %8g %6d %6d %9.2f %9.2f (p%-4g) %8s %9.1f %11.3f\n", r.Rate, r.Sent, r.Failed, median(r.Latency), t, pct, grow,
			r.completedPerSecond(), percentile(r.Late, 99))
	}
}

// runServe is the daemon under an open loop: a fixed rate ladder of
// 64-offer POST /v1/synthesize requests over at most serveConns
// connections, every response checked against the library.
func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	d, setupS, err := timeSetups(func() (*daemon, error) { return startDaemon(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	defer d.close()
	out := newOutcome()
	v := out.values
	v["setup_s"] = setupS
	v["learn_s"] = d.ready.LearnS
	for k, q := range d.ready.Quality {
		v[k] = q
	}

	d.warmup(ctx, out)
	rungs, stats, err := d.ladder(ctx, cfg.seconds, out, nil)
	if err != nil {
		return nil, err
	}
	v["peak_heap_mb"] = stats.PeakHeapMB

	nominal := rungs[serveNominal]
	v["op_p50_ms"] = median(nominal.Latency)
	pct, t := tail(nominal.Latency)
	v["offers_per_s"] = rungs[len(rungs)-1].completedPerSecond() * serveBatch
	v["success_rate"] = successRate(out)
	if late := percentile(nominal.Late, 99); late > serveMaxLateMS {
		out.fail("load generator ran %.1f ms late at p99 on the nominal rung (limit %g ms): run invalid", late, serveMaxLateMS)
	}

	fmt.Printf("serve: seed %d, %d distinct bodies of %d offers, %d connections, open loop over %v, limit %g ms on the tail\n",
		cfg.seed, len(d.bodies), serveBatch, serveConns, cfg.seconds, serveLimitMS)
	printRungs(rungs)
	report("setup_s", setupS, "s")
	report("learn_s (setup)", v["learn_s"], "s")
	report(fmt.Sprintf("serve_p50_ms (%g/s)", nominal.Rate), v["op_p50_ms"], "ms")
	report(fmt.Sprintf("serve_tail_ms (p%g of %d)", pct, len(nominal.Latency)), t, "ms")
	report("serve_max_rps", maxRPS(rungs), "1/s")
	report("offers_per_s (top rung)", v["offers_per_s"], "1/s")
	report("loadgen late p99 (nominal)", percentile(nominal.Late, 99), "ms")
	reportQuality(v)
	report("peak_heap_mb (daemon)", v["peak_heap_mb"], "MB")
	report("error_rate", 1-v["success_rate"], "ratio")
	return out, nil
}

// traceServe runs the ladder untraced and then traced, and has the
// daemon time the library call on each body directly. The daemon's own
// gauge gives the in-flight peak and its counter the shed requests.
func traceServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	d, err := startDaemon(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	out := newOutcome()
	v := out.values
	d.warmup(ctx, out)
	base, _, err := d.ladder(ctx, cfg.seconds, out, nil)
	if err != nil {
		return nil, err
	}
	var lib daemonLibrary
	if err := d.call(cmdLibrary, &lib); err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, stats, err := d.ladder(ctx, cfg.seconds, out, tr)
	if err != nil {
		return nil, err
	}

	rtt := median(traced[serveNominal].RoundTrip)
	v["serve.library_ms"] = lib.MedianMS
	v["serve.wire_ms"] = rtt - lib.MedianMS
	var reqBytes, respBytes int
	for b := range d.bodies {
		reqBytes += len(d.bodies[b])
		respBytes += len(d.want[b])
	}
	v["serve.request_kb"] = float64(reqBytes) / float64(len(d.bodies)) / 1024
	v["serve.response_kb"] = float64(respBytes) / float64(len(d.bodies)) / 1024
	v["serve.inflight_peak"] = float64(stats.InflightPeak)
	v["serve.shed"] = float64(stats.Shed)
	v["serve.max_rps"] = maxRPS(traced)
	v["go.gc_cpu_s"] = stats.GCCPUS
	v["go.alloc_mb"] = stats.AllocMB
	var late []float64
	for _, r := range traced {
		late = append(late, r.Late...)
	}
	v["loadgen.late_ms"] = percentile(late, 99)
	untracedP50 := median(base[serveNominal].Latency)
	v["trace.overhead_ratio"] = (median(traced[serveNominal].Latency) - untracedP50) / untracedP50
	v["trace.coverage"] = lib.MedianMS / rtt

	path, err := tr.write(filepath.Dir(cfg.workDir), spanFile(cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	self := selfTimes(tr.snapshot())
	fmt.Printf("serve (traced): untraced ladder, then traced ladder; spans in %s\n", path)
	printRungs(base)
	printRungs(traced)
	fmt.Printf("  self loadgen.queue %.3f s, serve.roundtrip %.3f s; library %.2f ms of a %.2f ms round trip at %g/s\n",
		self["loadgen.queue"].Seconds(), self["serve.roundtrip"].Seconds(), lib.MedianMS, rtt, serveLadder[serveNominal].rate)
	reportLayers(v)
	return out, nil
}
