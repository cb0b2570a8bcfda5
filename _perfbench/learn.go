package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prodsynth"
	"prodsynth/internal/catalog"
	"prodsynth/internal/categorize"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/extract"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
)

// minLearns is the fewest cold Learns an untraced learn run times, so
// learn_s is a median even when one Learn outlasts --seconds.
const minLearns = 4

type learnEnv struct{ m *prodsynth.Marketplace }

func (learnEnv) close() {}

// runLearn is the offline phase: each iteration is one cold Learn over
// the historical offers. The runtime, stream, fusion, serve and durable
// layers do no work in the timed region.
func runLearn(ctx context.Context, cfg runConfig) (*outcome, error) {
	env, setupS, err := timeSetups(func() (learnEnv, error) {
		return learnEnv{m: generate(cfg.seed)}, nil
	})
	if err != nil {
		return nil, err
	}
	m := env.m
	out := newOutcome()
	out.values["setup_s"] = setupS

	var times []float64
	var first learned
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; i < minLearns || time.Since(start) < cfg.seconds; i++ {
		out.attempted++
		l, err := learnCold(ctx, m)
		if err != nil {
			out.failed++
			out.fail("learn %d: %v", i, err)
			continue
		}
		times = append(times, l.elapsed.Seconds())
		if first.model == nil {
			first = l
		} else if !bytes.Equal(l.bytes, first.bytes) {
			out.failed++
			out.fail("learn %d: model bytes differ from the first iteration's", i)
		}
	}
	out.values["peak_heap_mb"] = heap.peakMB()
	if first.model == nil {
		return out, nil
	}

	// Quality of the learned model end to end: one untimed one-shot
	// synthesis of the incoming offers on the learned catalog.
	sys := prodsynth.NewSystem(m.Catalog, first.model, prodsynth.WithMatchRegistry(prodsynth.NewMatchRegistry(prodsynth.MatchRegistryOptions{})))
	res, err := sys.SynthesizeContext(ctx, m.IncomingOffers, prodsynth.MapFetcher(m.Pages))
	if err != nil {
		return nil, fmt.Errorf("quality synthesis: %w", err)
	}
	setQuality(out.values, m, first.model, res.Products)

	ls := median(times)
	out.values["learn_s"] = ls
	out.values["offers_per_s"] = float64(len(m.HistoricalOffers)) / ls
	out.values["op_p50_ms"] = ls * 1000
	pct, t := tail(times)
	out.values["success_rate"] = successRate(out)

	st := first.model.Stats()
	fmt.Printf("learn: seed %d, %d historical offers, %d matched, %d candidates, %d training examples, %d correspondences\n",
		cfg.seed, st.HistoricalOffers, st.MatchedOffers, st.Candidates, st.TrainingSize, st.Correspondences)
	fmt.Printf("learn: %d cold Learns in the timed region: %s s\n", len(times), joinFloats(times))
	report("setup_s", setupS, "s")
	report("learn_s", ls, "s")
	report(fmt.Sprintf("learn tail (p%g of %d)", pct, len(times)), t, "s")
	reportQuality(out.values)
	report("peak_heap_mb", out.values["peak_heap_mb"], "MB")
	report("error_rate", 1-out.values["success_rate"], "ratio")
	return out, nil
}

func successRate(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

// learnLayers are the traced learn run's layer spans, in pipeline order.
var learnLayers = []string{"categorize", "extract", "match", "correspond.features", "ml.train", "ml.score"}

// tracePairs is how many untraced and traced Learns a traced learn run
// alternates. Per-layer figures are means over the traced Learns and are
// compared with the untraced median, not one sample with another.
const tracePairs = 3

// traceLearn alternates untraced cold Learns with Learn rebuilt from the
// same exported steps with a span around each: categorize, extract
// (core.ExtractStage), match (match.Matcher per category), feature
// computation, training, and scoring plus selection. Every recomposed
// model must be byte-identical to Learn's.
func traceLearn(ctx context.Context, cfg runConfig) (*outcome, error) {
	m := generate(cfg.seed)
	out := newOutcome()
	tr := newTracer()
	var untraced, traced []float64
	var counts map[string]float64
	var gcCPU, allocMB float64
	for i := 0; i < tracePairs; i++ {
		base, err := learnCold(ctx, m)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, base.elapsed.Seconds())

		before := readGoCounters()
		start := time.Now()
		off, c, err := recomposedLearn(ctx, tr, m)
		traced = append(traced, time.Since(start).Seconds())
		delta := make(map[string]float64)
		before.since(delta)
		gcCPU, allocMB = gcCPU+delta["go.gc_cpu_s"], allocMB+delta["go.alloc_mb"]
		if err != nil {
			return nil, err
		}
		counts = c
		var buf bytes.Buffer
		if err := core.EncodeOffline(&buf, off); err != nil {
			return nil, err
		}
		out.attempted += 2
		if !bytes.Equal(buf.Bytes(), base.bytes) {
			out.failed++
			out.fail("recomposed Learn's model differs from Learn's (%d vs %d bytes)", buf.Len(), len(base.bytes))
		}
	}

	self := selfTimes(tr.snapshot())
	mean := func(d time.Duration) float64 { return d.Seconds() / tracePairs }
	for name, key := range map[string]string{
		"categorize": "categorize.s", "extract": "extract.s", "match": "match.s",
		"correspond.features": "correspond.features_s", "ml.train": "ml.train_s", "ml.score": "ml.score_s",
	} {
		out.values[key] = mean(self[name])
	}
	for k, v := range counts {
		out.values[k] = v
	}
	out.values["go.gc_cpu_s"] = gcCPU / tracePairs
	out.values["go.alloc_mb"] = allocMB / tracePairs
	learnS := median(untraced)
	var layerSum time.Duration
	for _, n := range learnLayers {
		layerSum += self[n]
	}
	out.values["trace.coverage"] = mean(layerSum) / learnS
	out.values["trace.overhead_ratio"] = (median(traced) - learnS) / learnS

	path, err := tr.write(filepath.Dir(cfg.workDir), spanFile(cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("learn (traced): untraced Learns %s s, recomposed %s s; spans in %s\n", joinFloats(untraced), joinFloats(traced), path)
	for _, n := range learnLayers {
		fmt.Printf("  self %-22s %8.3f s  %5.1f%% of untraced learn_s\n", n, mean(self[n]), 100*mean(self[n])/learnS)
	}
	fmt.Printf("  largest share: %s\n", largestShare(self, learnLayers))
	reportLayers(out.values)
	return out, nil
}

// timingFetcher counts and times landing-page fetches.
type timingFetcher struct {
	inner prodsynth.PageFetcher
	calls atomic.Int64
	nanos atomic.Int64
}

func (f *timingFetcher) Fetch(url string) (string, error) {
	start := time.Now()
	page, err := f.inner.Fetch(url)
	f.nanos.Add(int64(time.Since(start)))
	f.calls.Add(1)
	return page, err
}

// learnConfig is the Config Learn runs with when given no options, with
// its defaults spelled out: the exported steps take it as is, while
// Learn fills the same defaults in internally.
func learnConfig(reg *match.Registry) core.Config {
	return core.Config{
		Extraction:     extract.DefaultOptions,
		Matcher:        match.Matcher{Registry: reg},
		Features:       correspond.FeatureOptions{UseMatches: true, Workers: 4},
		ScoreThreshold: 0.5,
		Workers:        4,
	}
}

// recomposedLearn is core.RunOffline rebuilt from exported steps with a
// span around each. It returns the learned artifact and the layer
// counts.
func recomposedLearn(ctx context.Context, tr *tracer, m *prodsynth.Marketplace) (*core.OfflineResult, map[string]float64, error) {
	reg := match.NewRegistry()
	cfg := learnConfig(reg)
	store := m.Catalog
	counts := make(map[string]float64)
	root := tr.begin("learn", 0, 0)
	defer tr.end(root)

	sp := tr.begin("categorize", root, 0)
	classifier := categorize.New()
	classifier.TrainFromCatalog(store)
	withCat := append([]offer.Offer(nil), m.HistoricalOffers...)
	classifier.Assign(withCat)
	tr.end(sp)

	sp = tr.begin("extract", root, 0)
	fetcher := &timingFetcher{inner: prodsynth.MapFetcher(m.Pages)}
	enriched, err := pipe.Collect(ctx, core.ExtractStage(fetcher, cfg)(pipe.FromSlice(withCat)))
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	pairs := 0
	for i := range enriched {
		pairs += len(enriched[i].Spec) - len(withCat[i].Spec)
	}
	counts["extract.pages"] = float64(fetcher.calls.Load())
	counts["extract.pairs"] = float64(pairs)
	set := offer.NewSet(enriched)

	sp = tr.begin("match", root, 0)
	matches := matchByCategory(store, enriched, cfg)
	tr.end(sp)
	if matches.Len() == 0 {
		return nil, nil, errors.New("no historical matches")
	}
	counts["match.matched"] = float64(matches.Len())
	counts["match.index_builds"] = float64(reg.Builds())
	counts["match.deltas"] = float64(reg.Deltas())

	sp = tr.begin("correspond.features", root, 0)
	ft := correspond.ComputeFeatures(store, set, matches, cfg.Features)
	tr.end(sp)
	counts["correspond.candidates"] = float64(ft.Len())

	sp = tr.begin("ml.train", root, 0)
	model, err := correspond.Train(ft, cfg.Train)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	counts["ml.train_examples"] = float64(model.TrainingSize)

	sp = tr.begin("ml.score", root, 0)
	scored := model.ScoreAll(ft)
	selected := correspond.Select(scored, cfg.ScoreThreshold)
	tr.end(sp)

	return &core.OfflineResult{
		Offers:          set,
		Matches:         matches,
		Features:        ft,
		Model:           model,
		Scored:          scored,
		Correspondences: selected,
		Classifier:      classifier,
		Stats: core.OfflineStats{
			HistoricalOffers:  len(m.HistoricalOffers),
			MatchedOffers:     matches.Len(),
			Candidates:        ft.Len(),
			TrainingSize:      model.TrainingSize,
			TrainingPositives: model.TrainingPositives,
			Correspondences:   selected.Len(),
		},
	}, counts, nil
}

// matchByCategory runs the matcher once per category on cfg.Workers
// goroutines and merges the matches back in offer order. Offers match
// only within their category, so the merged set equals one Run over all
// offers; splitting the worker budget between categories and the
// matcher mirrors what Learn does and does not change the output.
func matchByCategory(store *catalog.Store, offers []offer.Offer, cfg core.Config) *match.MatchSet {
	byCat := make(map[string][]int)
	for i, o := range offers {
		byCat[o.CategoryID] = append(byCat[o.CategoryID], i)
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	if len(cats) == 0 {
		return match.NewMatchSet(nil)
	}
	matcher := cfg.Matcher
	matcher.Workers = max(1, cfg.Workers/len(cats))

	results := make([]match.Match, len(offers))
	found := make([]bool, len(offers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(cfg.Workers, len(cats)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(cats) {
					return
				}
				idx := byCat[cats[ci]]
				sub := make([]offer.Offer, len(idx))
				for j, gi := range idx {
					sub[j] = offers[gi]
				}
				ms := matcher.Run(store, offer.NewSet(sub))
				for j, gi := range idx {
					if mt, ok := ms.ProductFor(sub[j].ID); ok {
						results[gi], found[gi] = mt, true
					}
				}
			}
		}()
	}
	wg.Wait()
	kept := make([]match.Match, 0, len(offers))
	for i := range results {
		if found[i] {
			kept = append(kept, results[i])
		}
	}
	return match.NewMatchSet(kept)
}
