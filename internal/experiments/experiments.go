// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic marketplace: Table 2 (end-to-end
// quality), Table 3 (per top-level category), Table 4 (recall by offer-set
// size), Figure 6 (classifier vs single features), Figure 7 (historical
// matches vs none), Figure 8 (baseline comparison), and Figure 9 (COMA++ δ
// settings). Each experiment returns structured results plus a text
// rendering shaped like the paper's presentation.
//
// cmd/experiments drives this package from the command line; the root
// bench_test.go exposes one testing.B benchmark per experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"prodsynth/internal/baseline"
	"prodsynth/internal/baseline/coma"
	"prodsynth/internal/baseline/dumas"
	"prodsynth/internal/baseline/lsd"
	"prodsynth/internal/core"
	"prodsynth/internal/correspond"
	"prodsynth/internal/eval"
	"prodsynth/internal/offer"
	"prodsynth/internal/synth"
)

// Env is one generated-and-learned environment shared by all experiments,
// so the expensive offline phase runs once.
type Env struct {
	Dataset *synth.Dataset
	Offline *core.OfflineResult
	Runtime *core.Result
	Config  core.Config
}

// Setup generates the marketplace and runs the full pipeline. ctx cancels
// the underlying offline and runtime phases.
func Setup(ctx context.Context, gen synth.Config, pipe core.Config) (*Env, error) {
	ds := synth.Generate(gen)
	fetcher := core.MapFetcher(ds.Pages)
	off, err := core.RunOffline(ctx, ds.Catalog, ds.HistoricalOffers, fetcher, pipe)
	if err != nil {
		return nil, fmt.Errorf("experiments: offline phase: %w", err)
	}
	run, err := core.RunRuntime(ctx, ds.Catalog, off, ds.IncomingOffers, fetcher, pipe)
	if err != nil {
		return nil, fmt.Errorf("experiments: runtime phase: %w", err)
	}
	return &Env{Dataset: ds, Offline: off, Runtime: run, Config: pipe}, nil
}

// Truth adapts the generator ground truth to an eval.TruthFunc.
func (e *Env) Truth() eval.TruthFunc {
	return func(c correspond.Candidate) bool {
		return e.Dataset.Truth.IsCorrespondence(c.Key, c.CatalogAttr, c.MerchantAttr)
	}
}

// computingOffers restricts the historical offers to the Computing subtree,
// matching the paper's setup for Figures 7-9 ("92 categories, corresponding
// to subcategories of Computing").
func (e *Env) computingOffers() *offer.Set {
	var subset []offer.Offer
	for _, o := range e.Offline.Offers.All() {
		cat, ok := e.Dataset.Catalog.Category(o.CategoryID)
		if ok && cat.TopLevel == "Computing" {
			subset = append(subset, o)
		}
	}
	return offer.NewSet(subset)
}

// Table2Result is the paper's Table 2.
type Table2Result struct {
	InputOffers      int
	Products         int
	AttributePairs   int
	AttributePrec    float64
	ProductPrec      float64
	OfflineStats     core.OfflineStats
	PredictedValid   int
	ExcludedMatched  int
	OffersWithoutKey int
	// Sampled reproduces the paper's §5.1 protocol: grade a 400-product
	// sample and report 95% intervals, next to the exact numbers above.
	Sampled eval.SampledReport
}

// Table2 grades the end-to-end run.
func Table2(e *Env) Table2Result {
	rep := eval.GradeSynthesis(e.Runtime.Products, e.Dataset.Truth, e.Dataset.Universe)
	predicted := 0
	for _, sc := range e.Offline.Scored {
		if sc.Score >= 0.5 {
			predicted++
		}
	}
	return Table2Result{
		InputOffers:      len(e.Dataset.IncomingOffers),
		Products:         rep.Products,
		AttributePairs:   rep.AttributePairs,
		AttributePrec:    rep.AttributePrecision(),
		ProductPrec:      rep.ProductPrecision(),
		OfflineStats:     e.Offline.Stats,
		PredictedValid:   predicted,
		ExcludedMatched:  e.Runtime.ExcludedMatched,
		OffersWithoutKey: e.Runtime.OffersWithoutKey,
		Sampled: eval.GradeSynthesisSampled(e.Runtime.Products, e.Dataset.Truth,
			e.Dataset.Universe, 400, 0.95, 1),
	}
}

// RenderTable2 writes the Table 2 analogue.
func RenderTable2(w io.Writer, r Table2Result) {
	fmt.Fprintln(w, "== Table 2: Quality of synthesized product specifications ==")
	fmt.Fprintf(w, "%-36s %d\n", "Input Offers", r.InputOffers)
	fmt.Fprintf(w, "%-36s %d\n", "Synthesized Products", r.Products)
	fmt.Fprintf(w, "%-36s %d\n", "Synthesized Product Attributes", r.AttributePairs)
	fmt.Fprintf(w, "%-36s %.2f\n", "Attribute Precision", r.AttributePrec)
	fmt.Fprintf(w, "%-36s %.2f\n", "Product Precision", r.ProductPrec)
	fmt.Fprintln(w, "-- offline learning (cf. §5.1) --")
	fmt.Fprintf(w, "%-36s %d\n", "Historical offers", r.OfflineStats.HistoricalOffers)
	fmt.Fprintf(w, "%-36s %d\n", "Matched offers", r.OfflineStats.MatchedOffers)
	fmt.Fprintf(w, "%-36s %d\n", "Candidate tuples", r.OfflineStats.Candidates)
	fmt.Fprintf(w, "%-36s %d (%d positive)\n", "Auto-labeled training set",
		r.OfflineStats.TrainingSize, r.OfflineStats.TrainingPositives)
	fmt.Fprintf(w, "%-36s %d\n", "Correspondences predicted valid", r.PredictedValid)
	fmt.Fprintln(w, "-- paper's sampled protocol (400 products, 95% CI) --")
	fmt.Fprintf(w, "%-36s %.2f [%.2f, %.2f]\n", "Sampled attribute precision",
		r.Sampled.AttributePrec.Estimate, r.Sampled.AttributePrec.Low(), r.Sampled.AttributePrec.High())
	fmt.Fprintf(w, "%-36s %.2f [%.2f, %.2f]\n", "Sampled product precision",
		r.Sampled.ProductPrec.Estimate, r.Sampled.ProductPrec.Low(), r.Sampled.ProductPrec.High())
	fmt.Fprintln(w)
}

// Table3 grades per top-level category.
func Table3(e *Env) []eval.CategoryReport {
	return eval.GradeByTopLevel(e.Runtime.Products, e.Dataset.Truth, e.Dataset.Universe, e.Dataset.Catalog)
}

// RenderTable3 writes the Table 3 analogue.
func RenderTable3(w io.Writer, reports []eval.CategoryReport) {
	fmt.Fprintln(w, "== Table 3: Synthesis per top-level category ==")
	fmt.Fprintf(w, "%-24s %-8s %-18s %-18s %s\n", "Top-level", "Products", "Avg Attrs/Product", "Attribute prec.", "Product prec.")
	for _, r := range reports {
		fmt.Fprintf(w, "%-24s %-8d %-18.2f %-18.2f %.2f\n",
			r.TopLevel, r.Products, r.AvgAttrsPerProduct(), r.AttributePrecision(), r.ProductPrecision())
	}
	fmt.Fprintln(w)
}

// Table4 computes the recall split at 10 offers.
func Table4(e *Env) (heavy, light eval.RecallReport) {
	return eval.GradeRecall(e.Runtime.Products, e.Dataset.Truth, e.Dataset.Universe, 10)
}

// RenderTable4 writes the Table 4 analogue.
func RenderTable4(w io.Writer, heavy, light eval.RecallReport) {
	fmt.Fprintln(w, "== Table 4: Precision and recall for synthesized attributes ==")
	fmt.Fprintf(w, "%-30s %-10s %-16s %-16s %-14s %s\n",
		"Bucket", "Products", "Attr recall", "Attr precision", "Avg pool", "Avg synthesized")
	for _, r := range []eval.RecallReport{heavy, light} {
		fmt.Fprintf(w, "%-30s %-10d %-16.2f %-16.2f %-14.1f %.1f\n",
			r.Bucket, r.Products, r.AttributeRecall, r.AttributePrecision, r.AvgPoolSize, r.AvgSynthesized)
	}
	fmt.Fprintln(w)
}

// CurveOpts are the shared precision-at-coverage sweep settings.
var CurveOpts = eval.CurveOptions{ExcludeNameIdentity: true, Points: 40}

// Figure is one figure's data: the ranked candidates per system, plus the
// ground truth to grade them.
type Figure struct {
	Title  string
	Truth  eval.TruthFunc
	Names  []string
	Scored map[string][]correspond.Scored
}

func newFigure(title string, truth eval.TruthFunc) *Figure {
	return &Figure{Title: title, Truth: truth, Scored: make(map[string][]correspond.Scored)}
}

func (f *Figure) add(name string, scored []correspond.Scored) {
	f.Names = append(f.Names, name)
	f.Scored[name] = scored
}

// Series converts the figure into precision-at-coverage curves.
func (f *Figure) Series() []eval.Series {
	out := make([]eval.Series, 0, len(f.Names))
	for _, name := range f.Names {
		out = append(out, eval.Series{
			Name:   name,
			Points: eval.PrecisionAtCoverage(f.Scored[name], f.Truth, CurveOpts),
		})
	}
	return out
}

// CoverageAt returns a system's exact maximum coverage at a precision level.
func (f *Figure) CoverageAt(name string, precision float64) int {
	return eval.MaxCoverageAtPrecision(f.Scored[name], f.Truth, CurveOpts, precision)
}

// Figure6 compares the classifier against the single-feature scorers
// JS-MC and Jaccard-MC over all categories.
func Figure6(e *Env) (*Figure, error) {
	f := newFigure("Figure 6: classifier vs single distributional features", e.Truth())
	f.add("Our approach", e.Offline.Scored)
	for _, feat := range []string{"JS-MC", "Jaccard-MC"} {
		scored, err := correspond.ScoreSingleFeature(e.Offline.Features, feat)
		if err != nil {
			return nil, err
		}
		f.add(feat+" only", scored)
	}
	return f, nil
}

// trainOn retrains the classifier on a restricted offer set.
func (e *Env) trainOn(offers *offer.Set, useMatches bool) ([]correspond.Scored, error) {
	ft := correspond.ComputeFeatures(e.Dataset.Catalog, offers, e.Offline.Matches,
		correspond.FeatureOptions{UseMatches: useMatches})
	model, err := correspond.Train(ft, correspond.TrainOptions{})
	if err != nil {
		return nil, err
	}
	return model.ScoreAll(ft), nil
}

// Figure7 compares the classifier with and without historical instance
// matches, on the Computing subtree.
func Figure7(e *Env) (*Figure, error) {
	offers := e.computingOffers()
	with, err := e.trainOn(offers, true)
	if err != nil {
		return nil, err
	}
	without, err := e.trainOn(offers, false)
	if err != nil {
		return nil, err
	}
	f := newFigure("Figure 7: with vs without historical instance matches (Computing)", e.Truth())
	f.add("Our approach", with)
	f.add("No matching", without)
	return f, nil
}

// Figure8 compares the classifier against DUMAS, the LSD Naive Bayes
// matcher, and the three COMA++ configurations, on the Computing subtree.
func Figure8(e *Env) (*Figure, error) {
	offers := e.computingOffers()
	ours, err := e.trainOn(offers, true)
	if err != nil {
		return nil, err
	}
	f := newFigure("Figure 8: comparison against schema matching approaches (Computing)", e.Truth())
	f.add("Our approach", ours)
	matchers := []baseline.Matcher{
		lsd.Matcher{},
		dumas.Matcher{},
		coma.Matcher{Mode: coma.NameBased, Delta: math.Inf(1)},
		coma.Matcher{Mode: coma.InstanceBased, Delta: math.Inf(1)},
		coma.Matcher{Mode: coma.Combined, Delta: math.Inf(1)},
	}
	for _, m := range matchers {
		f.add(m.Name(), m.Score(e.Dataset.Catalog, offers, e.Offline.Matches))
	}
	return f, nil
}

// Figure9 compares COMA++ δ=0.01 (default) against δ=∞, on the Computing
// subtree, for the name-based and combined configurations, together with
// the paper's classifier curve for reference.
func Figure9(e *Env) (*Figure, error) {
	offers := e.computingOffers()
	ours, err := e.trainOn(offers, true)
	if err != nil {
		return nil, err
	}
	f := newFigure("Figure 9: COMA++ delta settings (Computing)", e.Truth())
	f.add("Our approach", ours)
	configs := []struct {
		name string
		m    coma.Matcher
	}{
		{"Name-based COMA++ (delta=0.01)", coma.Matcher{Mode: coma.NameBased, Delta: 0.01}},
		{"Name-based COMA++ (delta=inf)", coma.Matcher{Mode: coma.NameBased, Delta: math.Inf(1)}},
		{"Combined COMA++ (delta=0.01)", coma.Matcher{Mode: coma.Combined, Delta: 0.01}},
		{"Combined COMA++ (delta=inf)", coma.Matcher{Mode: coma.Combined, Delta: math.Inf(1)}},
	}
	for _, cfg := range configs {
		f.add(cfg.name, cfg.m.Score(e.Dataset.Catalog, offers, e.Offline.Matches))
	}
	return f, nil
}

// RenderFigure writes a figure's curves plus exact coverage-at-precision
// summary lines, the form the paper quotes ("20K correspondences at 0.87").
func RenderFigure(w io.Writer, f *Figure) error {
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	if err := eval.WriteCurves(w, f.Series()); err != nil {
		return err
	}
	for _, p := range []float64{0.9, 0.8, 0.7} {
		var parts []string
		for _, name := range f.Names {
			parts = append(parts, fmt.Sprintf("%s=%d", name, f.CoverageAt(name, p)))
		}
		fmt.Fprintf(w, "coverage@%.1f: %s\n", p, strings.Join(parts, "  "))
	}
	fmt.Fprintln(w)
	return nil
}
