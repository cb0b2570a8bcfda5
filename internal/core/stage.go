// Pull-based pipeline stages. The runtime pipeline's per-offer front half
// and per-cluster fusion are expressed as composable pipe.Stage values,
// so the one-shot entry points (RunRuntime, and PrepareIncoming /
// FuseClusters which it composes) and the streaming pipeline
// (internal/stream) execute the exact same stage bodies — the one-shot
// path drains a one-wave pipeline to slices, the stream pipelines waves
// through the same stages continuously. Each stage owns its scratch:
// nothing is materialized at wave size except where the algorithm itself
// needs the whole wave (the per-category partition and the global
// clustering step).
//
// Stage map (runtime phase, Figure 4 right half):
//
//	offers ── Classify ── Extract ── [gather] ── Match+Reconcile ──► Prepared
//	                (per offer)        (per category, ordered merge)
//	clusters ── Fuse ──► products   (per cluster, ordered)
package core

import (
	"context"
	"fmt"

	"prodsynth/internal/catalog"
	"prodsynth/internal/cluster"
	"prodsynth/internal/extract"
	"prodsynth/internal/fetch"
	"prodsynth/internal/fusion"
	"prodsynth/internal/match"
	"prodsynth/internal/offer"
	"prodsynth/internal/pipe"
	"prodsynth/internal/reconcile"
)

// ClassifyStage is the category classification stage: offers that lack a
// CategoryID get one from the offline classifier. Offers flow by value,
// so assignment never mutates the caller's slice — and when no classifier
// was learned (every incoming offer carries a feed category) the stage is
// a pass-through that copies nothing at all.
func ClassifyStage(offline *OfflineResult) pipe.Stage[offer.Offer, offer.Offer] {
	classifier := offline.Classifier
	if classifier == nil {
		return func(src pipe.Source[offer.Offer]) pipe.Source[offer.Offer] { return src }
	}
	return pipe.Map(func(_ context.Context, o offer.Offer) (offer.Offer, error) {
		if o.CategoryID == "" {
			if cat, _ := classifier.Classify(o.Title); cat != "" {
				o.CategoryID = cat
			}
		}
		return o, nil
	})
}

// ExtractStage is the web-page attribute extraction stage: each offer's
// landing page is fetched and extracted pairs are merged into the offer
// spec (feed pairs win on name conflict). Fetches fan out across
// cfg.Workers goroutines; results are delivered in input order, so output
// is identical for every worker count. A failed fetch keeps the feed spec
// unless cfg.StrictPages is set, in which case the first failure in input
// order ends the stage with a deterministic error.
//
// The stage context reaches each fetch: a context-aware fetcher
// (fetch.ContextPages, e.g. fetch.Resilient) observes pipeline
// cancellation and stage teardown mid-fetch — mid-retry, mid-backoff —
// instead of being abandoned; a plain PageFetcher is checked before the
// call and allowed to finish once started.
func ExtractStage(pages PageFetcher, cfg Config) pipe.Stage[offer.Offer, offer.Offer] {
	return extractStage(pages, cfg, nil)
}

// extractStage is ExtractStage plus the run-scoped degradation tally the
// result's fetch report is built from (nil: no accounting). The runtime
// front half and the offline phase both extract through it.
func extractStage(pages PageFetcher, cfg Config, tally *fetchTally) pipe.Stage[offer.Offer, offer.Offer] {
	return pipe.ParMap(cfg.Workers, func(ctx context.Context, o offer.Offer) (offer.Offer, error) {
		o = o.Clone()
		if pages == nil {
			return o, nil
		}
		tally.attempt()
		page, err := fetch.Call(ctx, pages, o.URL)
		if err != nil {
			if cfg.StrictPages {
				return offer.Offer{}, fmt.Errorf("core: strict pages: offer %s: %w", o.ID, err)
			}
			tally.degraded(o.ID)
			return o, nil
		}
		extracted := extract.WithOptions(page, cfg.Extraction)
		have := make(map[string]bool, len(o.Spec))
		for _, av := range o.Spec {
			have[av.Name] = true
		}
		for _, av := range extracted {
			if !have[av.Name] {
				o.Spec = append(o.Spec, av)
			}
		}
		return o, nil
	})
}

// partPrepared is one category's match-exclusion + reconciliation result.
type partPrepared struct {
	keptIdx  []int // positions of the survivors within the category, ascending
	kept     []offer.Offer
	excluded int
	stats    reconcile.Stats
}

// matchReconcile is the per-category back half of offer preparation:
// matching (to exclude offers describing products the catalog already
// has, §1) and schema reconciliation fan out across the worker pool, one
// task per category, and the per-category survivors are merged back in
// global input order — output independent of Workers.
func matchReconcile(ctx context.Context, store *catalog.Store, offline *OfflineResult, enriched []offer.Offer, cfg Config) (*Prepared, error) {
	parts, results, err := forEachCategory(ctx, enriched, cfg, func(matcher match.Matcher, sub []offer.Offer) partPrepared {
		var matches *match.MatchSet
		if !cfg.KeepMatchedIncoming {
			matches = matcher.Run(store, offer.NewSet(sub))
		}
		pr := partPrepared{keptIdx: make([]int, 0, len(sub))}
		kept := sub[:0]
		for j, o := range sub {
			if matches != nil {
				if _, ok := matches.ProductFor(o.ID); ok {
					pr.excluded++
					continue
				}
			}
			kept = append(kept, o)
			pr.keptIdx = append(pr.keptIdx, j)
		}
		pr.kept, pr.stats = reconcile.Offers(kept, offline.Correspondences)
		return pr
	})
	if err != nil {
		return nil, err
	}

	// Ordered merge: per-category survivor sets are disjoint index sets,
	// so walking the global input order reassembles exactly the sequence
	// a serial run over the whole wave would keep.
	prep := &Prepared{}
	keep := make([]bool, len(enriched))
	reconciled := make([]offer.Offer, len(enriched))
	for pi, pr := range results {
		prep.ExcludedMatched += pr.excluded
		prep.Reconcile.Add(pr.stats)
		for k, j := range pr.keptIdx {
			gi := parts[pi].indices[j]
			reconciled[gi] = pr.kept[k]
			keep[gi] = true
		}
	}
	kept := make([]offer.Offer, 0, len(enriched))
	for i := range enriched {
		if keep[i] {
			kept = append(kept, reconciled[i])
		}
	}
	prep.Kept = kept
	return prep, nil
}

// FuseStage is the value fusion stage: one cluster in, one synthesized
// product out. Fusion fans out across cfg.Workers goroutines with results
// in cluster order; fusion is a pure function of each cluster's member
// offers, so re-fusing an extended cluster yields exactly what fusing it
// whole would have (the streaming pipeline's contract).
func FuseStage(cfg Config) pipe.Stage[cluster.Cluster, fusion.Synthesized] {
	cfg = cfg.withDefaults()
	return pipe.ParMap(cfg.Workers, func(_ context.Context, cl cluster.Cluster) (fusion.Synthesized, error) {
		return fusion.SynthesizeOne(cl, cfg.Fusion), nil
	})
}
