package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"prodsynth"
	"prodsynth/internal/eval"
)

// marketplaceSeed is the generator seed of the large marketplace every
// run uses: 2,744 catalog products, 7,902 historical and 8,253 incoming
// offers. A run's --seed does not regenerate it. Across generator seeds
// the data's size and shape change enough to move the median cold Learn
// between 4.9 s and 8.0 s (seeds 1 to 20 on the reference machine), more
// than any bound could hold.
const marketplaceSeed = 1

// generate builds the large marketplace and rotates its offer lists by
// offsets drawn from seed, which changes which offers share a wave, a
// half or a request body.
func generate(seed int64) *prodsynth.Marketplace {
	cfg := prodsynth.ExperimentMarketplaceConfig()
	cfg.Seed = marketplaceSeed
	m := prodsynth.GenerateMarketplace(cfg)
	r := rand.New(rand.NewSource(seed))
	m.HistoricalOffers = rotate(m.HistoricalOffers, r.Intn(len(m.HistoricalOffers)))
	m.IncomingOffers = rotate(m.IncomingOffers, r.Intn(len(m.IncomingOffers)))
	return m
}

func rotate[T any](xs []T, k int) []T {
	return append(append([]T(nil), xs[k:]...), xs[:k]...)
}

// learned is one cold Learn: the model, its SaveModel bytes and its wall
// time.
type learned struct {
	model   *prodsynth.Model
	bytes   []byte
	elapsed time.Duration
}

// learnCold runs Learn with the catalog's match state released first, so
// every call builds its indexes from scratch, and releases it afterwards
// so it does not outlive the call.
func learnCold(ctx context.Context, m *prodsynth.Marketplace) (learned, error) {
	prodsynth.ReleaseMatchState(m.Catalog)
	defer prodsynth.ReleaseMatchState(m.Catalog)
	start := time.Now()
	model, err := prodsynth.Learn(ctx, m.Catalog, m.HistoricalOffers, prodsynth.MapFetcher(m.Pages))
	elapsed := time.Since(start)
	if err != nil {
		return learned{}, fmt.Errorf("learn: %w", err)
	}
	var buf bytes.Buffer
	if err := prodsynth.SaveModel(&buf, model); err != nil {
		return learned{}, fmt.Errorf("save model: %w", err)
	}
	return learned{model: model, bytes: buf.Bytes(), elapsed: elapsed}, nil
}

// corrQuality scores the model's selected correspondences against the
// generator's truth. Precision is the true share of the selected set;
// recall is the selected share of the true correspondences among the
// scored candidates (relative recall: a correspondence no historical
// match evidences cannot be learned by any method).
func corrQuality(model *prodsynth.Model, truth func(prodsynth.Correspondence) bool) (precision, recall float64) {
	selected := model.Correspondences()
	hit := 0
	for _, c := range selected {
		if truth(c) {
			hit++
		}
	}
	reachable := 0
	for _, c := range model.ScoredCandidates() {
		if truth(c) {
			reachable++
		}
	}
	if len(selected) > 0 {
		precision = float64(hit) / float64(len(selected))
	}
	if reachable > 0 {
		recall = float64(hit) / float64(reachable)
	}
	return precision, recall
}

func truthOf(m *prodsynth.Marketplace) func(prodsynth.Correspondence) bool {
	return func(c prodsynth.Correspondence) bool {
		return m.Truth.IsCorrespondence(c.Key, c.CatalogAttr, c.MerchantAttr)
	}
}

// setQuality fills the quality metrics every workload reports: the
// learned model's correspondence precision and recall, and the Table 2
// grading of the products the workload synthesized.
func setQuality(values map[string]float64, m *prodsynth.Marketplace, model *prodsynth.Model, products []prodsynth.Synthesized) {
	values["corr_precision"], values["corr_recall"] = corrQuality(model, truthOf(m))
	rep := eval.GradeSynthesis(products, m.Truth, m.Universe)
	values["products"] = float64(rep.Products)
	values["attr_precision"] = rep.AttributePrecision()
	values["product_precision"] = rep.ProductPrecision()
}

// reportQuality prints the quality metrics under the names the README
// uses.
func reportQuality(values map[string]float64) {
	for _, n := range []string{"corr_precision", "corr_recall", "products", "attr_precision", "product_precision"} {
		report(n, values[n], unitOf(n))
	}
}
