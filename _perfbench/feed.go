package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"prodsynth"
	"prodsynth/internal/catalog"
	"prodsynth/internal/cluster"
	"prodsynth/internal/core"
	"prodsynth/internal/durable"
	"prodsynth/internal/match"
	"prodsynth/internal/stream"
)

const (
	// feedWaves is how many waves each half of the incoming offers is
	// streamed in.
	feedWaves = 32
	// feedMaxOpen bounds the stream's open clusters well below the
	// roughly 800 clusters a half forms, so clusters spill to the durable
	// directory's scratch and revive when their keys return.
	feedMaxOpen = 128
	// feedFsync is the catalog's log policy: appends are not synced one by
	// one; each half's commit ends with one Durable.Sync (group commit).
	feedFsync = prodsynth.SyncNone
	// feedMinPasses keeps at least 200 wave samples per run, so the tail
	// rule settles on the same percentile from run to run.
	feedMinPasses = 4
	// feedMaxPasses keeps the sample count under 1000 for the same reason.
	feedMaxPasses = 15
)

var halfPrefix = [2]string{"half1", "half2"}

// feedEnv is the feed workload's set-up: the marketplace, the learned
// model, the catalog every pass starts from, the waves, and the
// reference outputs every pass must reproduce.
type feedEnv struct {
	m        *prodsynth.Marketplace
	learn    learned
	snapshot []byte                     // SaveCatalog of the starting catalog
	waves    [2][][]prodsynth.Offer     // per half, feedWaves contiguous waves
	ref      [2][]prodsynth.Synthesized // one-shot SynthesizeContext of each half
	refStore []byte                     // EncodeStore after both halves commit
	offers   int
}

func (*feedEnv) close() {}

// setupFeed generates the marketplace, learns, and boots the feed: the
// catalog snapshot each pass reloads, the interleaved halves cut into
// waves, and the one-shot references.
func setupFeed(ctx context.Context, seed int64) (*feedEnv, error) {
	m := generate(seed)
	l, err := learnCold(ctx, m)
	if err != nil {
		return nil, err
	}
	env := &feedEnv{m: m, learn: l, offers: len(m.IncomingOffers)}
	var snap bytes.Buffer
	if err := prodsynth.SaveCatalog(&snap, m.Catalog); err != nil {
		return nil, err
	}
	env.snapshot = snap.Bytes()

	// Interleaved halves, as in examples/cataloggrowth: offers for one
	// product land in both, so the second half finds most of its offers
	// matched by the first half's commits.
	var halves [2][]prodsynth.Offer
	for i, o := range m.IncomingOffers {
		halves[i%2] = append(halves[i%2], o)
	}
	for h, half := range halves {
		for w := 0; w < feedWaves; w++ {
			env.waves[h] = append(env.waves[h], half[w*len(half)/feedWaves:(w+1)*len(half)/feedWaves])
		}
	}

	store, err := prodsynth.LoadCatalog(bytes.NewReader(env.snapshot))
	if err != nil {
		return nil, err
	}
	sys := prodsynth.NewSystem(store, l.model, prodsynth.WithMatchRegistry(prodsynth.NewMatchRegistry(prodsynth.MatchRegistryOptions{})))
	for h, half := range halves {
		res, err := sys.SynthesizeContext(ctx, half, prodsynth.MapFetcher(m.Pages))
		if err != nil {
			return nil, fmt.Errorf("reference synthesis: %w", err)
		}
		env.ref[h] = res.Products
		sys.AddToCatalog(res.Products, halfPrefix[h])
	}
	if env.refStore, err = encodeStore(store); err != nil {
		return nil, err
	}
	return env, nil
}

func encodeStore(st *prodsynth.Catalog) ([]byte, error) {
	var buf bytes.Buffer
	err := catalog.EncodeStore(&buf, st)
	return buf.Bytes(), err
}

// feedPass is one pass's fresh durable catalog and its outcome.
type feedPass struct {
	dir string
	d   *prodsynth.Durable
	reg *prodsynth.MatchRegistry
	sys *prodsynth.System

	elapsed  time.Duration
	waveMS   []float64
	waveErrs int
	products [2][]prodsynth.Synthesized
	logStats prodsynth.DurabilityStats
	recover  time.Duration
}

// reset builds a pass's starting state, untimed: the catalog reloaded
// from the snapshot bytes into a fresh durable directory, a private match
// registry, and a System spilling to that directory.
func (env *feedEnv) reset(dir string) (*feedPass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := prodsynth.LoadCatalog(bytes.NewReader(env.snapshot))
	if err != nil {
		return nil, err
	}
	d, err := prodsynth.OpenDurable(dir, prodsynth.DurabilityOptions{Fsync: feedFsync})
	if err != nil {
		return nil, err
	}
	if err := d.ImportCatalog(store); err != nil {
		d.Close()
		return nil, err
	}
	reg := prodsynth.NewMatchRegistry(prodsynth.MatchRegistryOptions{})
	sys := prodsynth.NewSystem(d.Catalog(), env.learn.model, prodsynth.WithDurability(d), prodsynth.WithMatchRegistry(reg))
	return &feedPass{dir: dir, d: d, reg: reg, sys: sys}, nil
}

// halfFunc synthesizes one half's waves and returns its final products.
type halfFunc func(ctx context.Context, p *feedPass, h int) ([]prodsynth.Synthesized, error)

// run is the timed pass: each half is synthesized by synth and its final
// products committed with one sync, then the durable directory is closed
// and reopened (a restart). It then checks, untimed, every half against
// its one-shot reference and the reopened catalog against the live one
// and the reference, byte for byte. It returns the number of failed
// operations.
func (env *feedEnv) run(ctx context.Context, p *feedPass, synth halfFunc, tr *tracer, root int) (int, []string, error) {
	start := time.Now()
	for h := range env.waves {
		products, err := synth(ctx, p, h)
		if err != nil {
			p.d.Close()
			return 0, nil, err
		}
		p.products[h] = products
		sp := tr.begin("catalog.add", root, h)
		p.sys.AddToCatalog(products, halfPrefix[h])
		tr.end(sp)
		sp = tr.begin("durable.sync", root, h)
		err = p.d.Sync()
		tr.end(sp)
		if err != nil {
			p.d.Close()
			return 0, nil, err
		}
	}
	p.logStats = p.d.Stats()
	sp := tr.begin("durable.reopen", root, 0)
	closeErr := p.d.Close()
	reopened, err := prodsynth.OpenDurable(p.dir, prodsynth.DurabilityOptions{Fsync: feedFsync})
	tr.end(sp)
	p.elapsed = time.Since(start)
	if closeErr != nil {
		return 0, nil, closeErr
	}
	if err != nil {
		return 0, nil, fmt.Errorf("reopen: %w", err)
	}
	defer reopened.Close()
	p.recover = reopened.Stats().Recovery.Duration

	failed := p.waveErrs
	var problems []string
	for h := range env.ref {
		if !reflect.DeepEqual(p.products[h], env.ref[h]) {
			failed += len(env.waves[h])
			problems = append(problems, fmt.Sprintf("half %d: stream output (%d products) differs from one-shot synthesis (%d products)",
				h+1, len(p.products[h]), len(env.ref[h])))
		}
	}
	live, err := encodeStore(p.d.Catalog())
	if err != nil {
		return 0, nil, err
	}
	back, err := encodeStore(reopened.Catalog())
	if err != nil {
		return 0, nil, err
	}
	if !bytes.Equal(live, back) || !bytes.Equal(live, env.refStore) {
		failed++
		problems = append(problems, "reopened catalog differs from the live catalog or the reference")
	}
	return failed, problems, nil
}

// streamHalf feeds one half's waves through SynthesizeStream and records
// each wave's latency, from the moment the wave is offered to the stream
// to the arrival of its result.
func (env *feedEnv) streamHalf(ctx context.Context, p *feedPass, h int) ([]prodsynth.Synthesized, error) {
	waves := env.waves[h]
	in := make(chan []prodsynth.Offer)
	results, err := p.sys.SynthesizeStream(ctx, in, prodsynth.MapFetcher(env.m.Pages), prodsynth.StreamOptions{MaxOpenClusters: feedMaxOpen})
	if err != nil {
		close(in)
		return nil, err
	}
	offered := make([]time.Time, len(waves))
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(in)
		for i, w := range waves {
			offered[i] = time.Now()
			select {
			case in <- w:
			case <-ctx.Done():
				return
			}
		}
	}()
	var final []prodsynth.Synthesized
	for r := range results {
		switch {
		case r.Final:
			final = r.Products
		case r.Err != nil:
			p.waveErrs++
		default:
			p.waveMS = append(p.waveMS, ms(time.Since(offered[r.Wave])))
		}
	}
	<-fed
	return final, nil
}

func (env *feedEnv) passDir(workDir string, i int) string {
	return filepath.Join(workDir, fmt.Sprintf("feed-%d", i))
}

// runFeed is the runtime feed: both halves streamed in waves with
// spilling cluster memory, committed to a durable catalog, and the
// catalog reopened, as many passes as fit in --seconds.
func runFeed(ctx context.Context, cfg runConfig) (*outcome, error) {
	env, setupS, err := timeSetups(func() (*feedEnv, error) { return setupFeed(ctx, cfg.seed) })
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.values["setup_s"] = setupS
	out.values["learn_s"] = env.learn.elapsed.Seconds()

	var rates, waveMS []float64
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; i < feedMaxPasses && (i < feedMinPasses || time.Since(start) < cfg.seconds); i++ {
		p, err := env.reset(env.passDir(cfg.workDir, i))
		if err != nil {
			return nil, err
		}
		failed, problems, err := env.run(ctx, p, env.streamHalf, nil, 0)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(p.dir)
		out.attempted += 2*feedWaves + 1
		out.failed += failed
		out.problems = append(out.problems, problems...)
		rates = append(rates, float64(env.offers)/p.elapsed.Seconds())
		waveMS = append(waveMS, p.waveMS...)
	}
	out.values["peak_heap_mb"] = heap.peakMB()

	setQuality(out.values, env.m, env.learn.model, append(append([]prodsynth.Synthesized(nil), env.ref[0]...), env.ref[1]...))
	out.values["offers_per_s"] = median(rates)
	out.values["op_p50_ms"] = median(waveMS)
	pct, t := tail(waveMS)
	out.values["success_rate"] = successRate(out)

	fmt.Printf("feed: seed %d, %d incoming offers in 2 halves x %d waves, MaxOpenClusters %d, fsync %v with one sync per half\n",
		cfg.seed, env.offers, feedWaves, feedMaxOpen, feedFsync)
	fmt.Printf("feed: %d passes, offers/s per pass: %s\n", len(rates), joinFloats(rates))
	report("setup_s", setupS, "s")
	report("learn_s (setup)", out.values["learn_s"], "s")
	report("feed_offers_per_s", out.values["offers_per_s"], "1/s")
	report("wave_p50_ms", out.values["op_p50_ms"], "ms")
	report(fmt.Sprintf("wave_tail_ms (p%g of %d)", pct, len(waveMS)), t, "ms")
	reportQuality(out.values)
	report("peak_heap_mb", out.values["peak_heap_mb"], "MB")
	report("error_rate", 1-out.values["success_rate"], "ratio")
	return out, nil
}

// feedLayers are the traced feed run's layer spans.
var feedLayers = []string{"core.prepare", "stream.memory", "fusion", "catalog.add", "durable.sync", "durable.reopen"}

// traceFeed runs one untraced pass, then one pass recomposed per wave
// from the stream's building blocks with barrier execution:
// core.PrepareIncoming, then stream.Memory.Add and DrainEvicted with a
// spill store in the durable directory, then core.FuseClusters. Fetches
// go through a timing PageFetcher and matching through the pass's
// private registry. The recomposed products must equal the stream's.
func traceFeed(ctx context.Context, cfg runConfig) (*outcome, error) {
	env, err := setupFeed(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted = 2 * (2*feedWaves + 1)

	base, err := env.reset(env.passDir(cfg.workDir, 0))
	if err != nil {
		return nil, err
	}
	failed, problems, err := env.run(ctx, base, env.streamHalf, nil, 0)
	if err != nil {
		return nil, err
	}
	out.failed += failed
	out.problems = append(out.problems, problems...)

	offline, err := core.DecodeOffline(bytes.NewReader(env.learn.bytes))
	if err != nil {
		return nil, err
	}
	p, err := env.reset(env.passDir(cfg.workDir, 1))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rec := &recomposedFeed{env: env, tr: tr, offline: offline, fetcher: &timingFetcher{inner: prodsynth.MapFetcher(env.m.Pages)}}
	before := readGoCounters()
	root := tr.begin("feed.pass", 0, 0)
	rec.root = root
	failed, problems, err = env.run(ctx, p, rec.half, tr, root)
	tr.end(root)
	before.since(out.values)
	if err != nil {
		return nil, err
	}
	out.failed += failed
	out.problems = append(out.problems, problems...)
	for h := range p.products {
		if !reflect.DeepEqual(p.products[h], base.products[h]) {
			out.failed++
			out.fail("half %d: recomposed products differ from the stream's", h+1)
		}
	}

	self := selfTimes(tr.snapshot())
	v := out.values
	v["fetch.calls"] = float64(rec.fetcher.calls.Load())
	v["fetch.s"] = time.Duration(rec.fetcher.nanos.Load()).Seconds()
	v["core.prepare_s"] = self["core.prepare"].Seconds()
	v["core.excluded_matched"] = float64(rec.excluded)
	v["reconcile.pairs_mapped"] = float64(rec.mapped)
	v["reconcile.pairs_dropped"] = float64(rec.dropped)
	v["stream.memory_s"] = self["stream.memory"].Seconds()
	v["stream.open_clusters_peak"] = float64(rec.openPeak)
	v["stream.spills"] = float64(rec.spills)
	v["stream.revives"] = float64(rec.revives)
	v["fusion.s"] = self["fusion"].Seconds()
	v["fusion.calls"] = float64(rec.fusions)
	if rec.fusions > 0 {
		v["fusion.useful_ratio"] = float64(len(p.products[0])+len(p.products[1])) / float64(rec.fusions)
	}
	v["match.deltas"] = float64(p.reg.Deltas())
	v["match.index_builds"] = float64(p.reg.Builds())
	v["catalog.add_s"] = self["catalog.add"].Seconds()
	v["durable.log_records"] = float64(p.logStats.LogDepthRecords)
	v["durable.log_bytes"] = float64(p.logStats.LogDepthBytes)
	v["durable.recover_ms"] = ms(p.recover)
	var layerSum time.Duration
	for _, n := range feedLayers {
		layerSum += self[n]
	}
	v["trace.coverage"] = layerSum.Seconds() / base.elapsed.Seconds()
	v["trace.overhead_ratio"] = (p.elapsed.Seconds() - base.elapsed.Seconds()) / base.elapsed.Seconds()

	path, err := tr.write(filepath.Dir(cfg.workDir), spanFile(cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("feed (traced): untraced pass %.3f s, recomposed pass %.3f s; spans in %s\n", base.elapsed.Seconds(), p.elapsed.Seconds(), path)
	for _, n := range feedLayers {
		fmt.Printf("  self %-16s %8.3f s  %5.1f%% of the untraced pass\n", n, self[n].Seconds(), 100*self[n].Seconds()/base.elapsed.Seconds())
	}
	fmt.Printf("  largest share: %s\n", largestShare(self, feedLayers))
	reportLayers(v)
	return out, nil
}

// recomposedFeed synthesizes a half wave by wave from the stream's
// building blocks and counts what each layer did.
type recomposedFeed struct {
	env     *feedEnv
	tr      *tracer
	root    int
	offline *core.OfflineResult
	fetcher *timingFetcher

	excluded, mapped, dropped int
	openPeak, spills, revives int
	fusions                   int
}

func (r *recomposedFeed) half(ctx context.Context, p *feedPass, h int) ([]prodsynth.Synthesized, error) {
	tr := r.tr
	cfg := core.Config{Matcher: match.Matcher{Registry: p.reg}}
	store := p.d.Catalog()
	spill, err := durable.SpillDir{Dir: filepath.Join(p.dir, "spill")}.NewSpill()
	if err != nil {
		return nil, err
	}
	defer spill.Close()
	mem := stream.NewMemory(stream.MemoryOptions{MaxClusters: feedMaxOpen, Spill: spill})
	half := tr.begin("feed.half", r.root, h)
	defer tr.end(half)

	for w, batch := range r.env.waves[h] {
		unit := h*feedWaves + w
		wave := tr.begin("wave", half, unit)
		sp := tr.begin("core.prepare", wave, unit)
		prep, err := core.PrepareIncoming(ctx, store, r.offline, batch, r.fetcher, cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.excluded += prep.ExcludedMatched
		r.mapped += prep.Reconcile.PairsMapped
		r.dropped += prep.Reconcile.PairsDropped

		sp = tr.begin("stream.memory", wave, unit)
		touched, _ := mem.Add(store, prep.Kept)
		r.openPeak = max(r.openPeak, mem.Len())
		tr.end(sp)

		sp = tr.begin("fusion", wave, unit)
		_, err = core.FuseClusters(ctx, touched, cfg)
		r.fusions += len(touched)
		tr.end(sp)
		if err != nil {
			return nil, err
		}

		sp = tr.begin("stream.memory", wave, unit)
		evicted := mem.DrainEvicted()
		tr.end(sp)
		if len(evicted) > 0 {
			clusters := make([]cluster.Cluster, len(evicted))
			for i, ev := range evicted {
				clusters[i] = ev.Cluster
			}
			sp = tr.begin("fusion", wave, unit)
			_, err = core.FuseClusters(ctx, clusters, cfg)
			r.fusions += len(clusters)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		tr.end(wave)
	}

	sp := tr.begin("stream.memory", half, h)
	closing := mem.CloseAll()
	tr.end(sp)
	if err := mem.SpillErr(); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	merged := make([]cluster.Cluster, len(closing))
	for i, ev := range closing {
		merged[i] = ev.Cluster
	}
	sp = tr.begin("fusion", half, h)
	final, err := core.FuseClusters(ctx, merged, cfg)
	r.fusions += len(merged)
	tr.end(sp)
	spills, revives, _ := mem.Spilled()
	r.spills += spills
	r.revives += revives
	return final, err
}
