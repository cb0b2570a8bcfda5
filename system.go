package prodsynth

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"prodsynth/internal/catalog"
	"prodsynth/internal/core"
	"prodsynth/internal/fetch"
	"prodsynth/internal/stream"
)

// wrapFetch applies the config's fetch policy around the caller's
// fetcher. Wrapping happens once per run (or once per stream), never per
// offer or per wave, so the returned fetcher's breaker state, concurrency
// gate, and counters span the whole run. A disabled policy (the zero
// value) or a nil fetcher passes through untouched — and a caller who
// pre-wrapped with NewResilientFetcher is not double-wrapped.
func wrapFetch(pages core.PageFetcher, cfg Config) core.PageFetcher {
	if pages == nil || !cfg.Fetch.Enabled() {
		return pages
	}
	if _, ok := pages.(*fetch.Resilient); ok {
		return pages
	}
	return fetch.NewResilient(pages, cfg.Fetch)
}

// System is the runtime half of the pipeline: it ties a catalog to a
// learned Model and serves synthesis over them. Build one with NewSystem
// from a Model (Learn or LoadModel), so a System is never "not learned";
// in a long-lived process, swap in a re-learned Model atomically with Use
// while synthesis traffic is in flight.
type System struct {
	store *Catalog
	cfg   Config
	// slot holds the served model together with its generation number, in
	// one pointer, so a synthesis call pins a consistent (model,
	// generation) pair with a single atomic load — a concurrent Use can
	// never make a result report the wrong model's generation.
	slot atomic.Pointer[modelSlot]
	// gen mints generation numbers: 1 for the Model a System is built
	// with, +1 per Use. Monotonic for the lifetime of the System.
	gen atomic.Uint64
}

// modelSlot is the atomically swapped unit behind System.Use.
type modelSlot struct {
	model *Model
	gen   uint64
}

// NewSystem creates a System serving synthesis over a catalog with a
// learned Model. The zero Config (no options) applies the paper's
// defaults; pass WithConfig or the finer-grained options to tune the
// runtime pipeline. The Model it is built with is generation 1. A nil
// model is a programmer error and panics.
func NewSystem(store *Catalog, model *Model, opts ...Option) *System {
	if model == nil {
		panic("prodsynth: NewSystem called with a nil Model")
	}
	s := &System{store: store, cfg: buildConfig(opts)}
	s.slot.Store(&modelSlot{model: model, gen: s.gen.Add(1)})
	return s
}

// Use atomically swaps the System's Model: synthesis calls that started
// before the swap finish against the old model, calls that start after it
// use the new one. This is the hot-reload path for a serving process that
// re-learns (or re-loads) its model without downtime. Every swap bumps the
// System's model generation (see Generation). A nil model is a
// programmer error and panics, leaving the current model in place.
func (s *System) Use(model *Model) {
	if model == nil {
		panic("prodsynth: System.Use called with a nil Model")
	}
	s.slot.Store(&modelSlot{model: model, gen: s.gen.Add(1)})
}

// Model returns the Model the System currently serves with.
func (s *System) Model() *Model { return s.slot.Load().model }

// Generation returns the generation number of the Model the System
// currently serves with: 1 for the Model passed to NewSystem, incremented
// by every Use. A serving process exposes this as the observable marker of a completed
// hot reload, and every Result reports the generation that produced it
// (Result.ModelGeneration), so responses spanning a swap are attributable
// to exactly one model.
func (s *System) Generation() uint64 { return s.slot.Load().gen }

// Result is the outcome of a synthesis run, and the one result shape
// every runtime entry point reports: SynthesizeContext returns one,
// BatchResult holds one per batch plus their Total, and every
// StreamResult embeds one.
type Result = core.Result

// SynthesizeContext runs the runtime pipeline (§4) over incoming offers:
// extraction, schema reconciliation, clustering, and value fusion, against
// the System's current Model. Cancelling ctx stops the pipeline's worker
// pools at the next stage boundary with ctx.Err() and leaks no goroutines.
//
// The (model, generation) slot is pinned with one atomic load, so a
// concurrent Use cannot change the model — or detach it from its
// generation — mid-call.
func (s *System) SynthesizeContext(ctx context.Context, incoming []Offer, pages PageFetcher) (*Result, error) {
	sl := s.slot.Load()
	start := time.Now()
	res, err := core.RunRuntime(ctx, s.store, sl.model.offline, incoming, wrapFetch(pages, s.cfg), s.cfg)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.ModelGeneration = sl.gen
	return res, nil
}

// BatchResult is the outcome of a SynthesizeBatchesContext run.
type BatchResult struct {
	// Batches holds one Result per input batch, in input order; each
	// carries its own wall time and match/fusion counts. A batch that
	// failed has Err set and contributes nothing to Total; its Result
	// carries only Offers, Elapsed, ModelGeneration and Err.
	Batches []*Result
	// Failed counts batches whose Result carries a non-nil Err.
	Failed int
	// Total aggregates every successful batch: concatenated Products
	// (batch order) and summed counters. Total.Elapsed sums the
	// per-batch run times; since one batch's prepare overlaps the
	// previous batch's fuse, the sum can exceed the run's wall time.
	Total Result
}

// SynthesizeBatchesContext runs the runtime pipeline over a sequence of
// offer batches — the serving shape of the system, where offer feeds
// arrive in waves. The learned model and the matcher's per-category
// indexes are reused across batches, so every batch after the first runs
// against warm state; a batch containing all offers at once is equivalent
// to a single SynthesizeContext call. Offers are clustered within their
// batch: a product whose offers are split across batches synthesizes once
// per batch it appears in — use SynthesizeStream for cross-batch cluster
// memory.
//
// The batches run as a SynthesizeStream with DisableClusterMemory, so
// batch n+1's prepare overlaps batch n's fuse while every batch's output
// stays what a run of that batch alone would produce. The Model is pinned
// once for the whole run, so a concurrent Use swap never splits a batch
// sequence across two models. A batch that fails (e.g. under
// Config.StrictPages) records its error in that batch's Result.Err and
// the run continues — except for ctx cancellation, which stops the run
// and returns ctx.Err().
func (s *System) SynthesizeBatchesContext(ctx context.Context, batches [][]Offer, pages PageFetcher) (*BatchResult, error) {
	waves := make(chan []Offer, len(batches))
	for _, b := range batches {
		waves <- b
	}
	close(waves)
	results, err := s.SynthesizeStream(ctx, waves, pages, StreamOptions{DisableClusterMemory: true})
	if err != nil {
		return nil, err
	}
	out := &BatchResult{Batches: make([]*Result, 0, len(batches))}
	var products []Synthesized
	for r := range results {
		if r.Final {
			// With memory disabled the final result carries the summed
			// counters but no products: every batch already emitted its own.
			out.Total = r.Result
			out.Total.Products = products
			return out, nil
		}
		out.Batches = append(out.Batches, &r.Result)
		if r.Err != nil {
			out.Failed++
			continue
		}
		products = append(products, r.Products...)
	}
	// The stream closes without its final result only when cancelled.
	return nil, ctx.Err()
}

// StreamOptions tunes SynthesizeStream. The zero value keeps unbounded
// cluster memory and the smallest result buffer.
type StreamOptions struct {
	// MaxOpenClusters bounds the cross-batch cluster memory: past the
	// bound, the least recently extended clusters are forgotten (a later
	// offer with a forgotten cluster's key synthesizes a duplicate, as a
	// memory-less batch run would). 0 means unbounded.
	MaxOpenClusters int
	// MaxIdleWaves forgets clusters no wave has extended for more than
	// this many consecutive waves — a TTL measured in waves, so behaviour
	// is deterministic for a given wave sequence. 0 means never.
	MaxIdleWaves int
	// DisableClusterMemory makes every wave cluster independently,
	// reproducing SynthesizeBatchesContext semantics wave for wave.
	DisableClusterMemory bool
	// Buffer sets how far the fuse stage runs ahead of the consumer: the
	// result channel holds up to Buffer+1 finished results, and once it is
	// full the fuse stage blocks holding one more, so 0 applies the
	// tightest backpressure. The prepare stage additionally
	// works ahead of fuse by up to 1+Config.StageBuffer waves (see
	// WithStageBuffer) unless cross-wave pipelining is disabled.
	Buffer int
	// FetchPolicy overrides the System's Config.Fetch for this stream:
	// non-nil, the stream wraps its fetcher under this policy instead
	// (set to new(FetchPolicy) — the zero policy — to disable wrapping
	// for a stream on a System that has one configured). The wrap spans
	// the whole stream, so breaker state and FetchReport counters carry
	// across waves.
	FetchPolicy *FetchPolicy
}

// SealReason says why a cluster was sealed — why the stream's cross-batch
// cluster memory decided it can no longer grow.
type SealReason = stream.SealReason

// The seal reasons carried by ClusterSealed events.
const (
	// SealClose: the input channel closed; every cluster still open seals
	// on the final result.
	SealClose = stream.SealClose
	// SealLRU: the cluster was evicted as least recently extended when the
	// open set exceeded StreamOptions.MaxOpenClusters.
	SealLRU = stream.SealLRU
	// SealIdle: no wave extended the cluster for more than
	// StreamOptions.MaxIdleWaves consecutive waves.
	SealIdle = stream.SealIdle
	// SealInvalidated: AddToCatalog grew the catalog mid-stream in one of
	// the cluster's member categories, so the cluster was dropped rather
	// than extended (its product may now exist in the catalog).
	SealInvalidated = stream.SealInvalidated
)

// ClusterSealed is one per-cluster seal event on a StreamResult: the
// stream's cluster memory decided this cluster can no longer grow, so its
// Product is final rather than provisional — the signal a consumer
// committing products downstream (AddToCatalog, an export feed) waits for
// instead of re-committing every re-fused emission. ClusterIDs are unique
// for the lifetime of one stream and every cluster seals exactly once:
// through one eviction reason mid-stream, or through SealClose on the
// final result (whose Sealed events align 1:1 with its merged Products).
type ClusterSealed = stream.Sealed

// StreamResult is one emission of SynthesizeStream: the embedded Result
// carries the wave's products and counters (or Err for a failed wave),
// and the stream adds Wave, Final, Sealed, OpenClusters, SpilledClusters,
// and the wave's PrepareElapsed and FuseElapsed, which sum to Elapsed.
// On the Final result, Products are the merged stream view: for an
// uninterrupted stream with unbounded memory and no mid-stream catalog
// growth, byte-identical to a one-shot SynthesizeContext over the
// concatenated waves.
type StreamResult = stream.Result

// SynthesizeStream runs the runtime pipeline as a long-lived feed
// consumer: offer waves are read from waves, processed in order against
// the warm matcher state, and one StreamResult per wave is delivered on
// the returned channel, followed by a closing Final result when waves is
// closed. Unlike SynthesizeBatchesContext, clusters stay open across waves
// in a cross-batch cluster memory: an offer arriving in wave n whose key
// matches a cluster synthesized in an earlier wave joins that cluster,
// and the wave's result carries the product re-fused over the union of
// evidence — the product synthesizes once, not once per wave. The memory
// is bounded through StreamOptions and invalidated per category when
// AddToCatalog grows the catalog mid-stream (the same version counters
// that refresh the matcher's indexes), since such clusters' products may
// now be matched — and excluded — against the catalog itself.
//
// The stream executes as two pull-based stages — prepare (classify,
// extract, match-exclude, reconcile) and fuse (cluster memory, value
// fusion) — with a bounded buffer between them, so wave n+1's prepare
// overlaps wave n's fuse while results are still emitted in input order,
// byte-identical to barrier execution (WithStageBuffer tunes or disables
// the overlap). Each result's Sealed field carries the stream's
// ClusterSealed events: the products that just became final (see
// ClusterSealed for the consumer contract).
//
// The stream pins the Model current when it starts; a later Use swap
// affects subsequent calls, not a stream already in flight. A failed wave
// (e.g. under Config.StrictPages) reports its error in that wave's
// StreamResult.Err and the stream continues. Cancelling ctx stops the
// pipeline — whatever stage each in-flight wave is in — and closes the
// channel without the final result; every pipeline goroutine exits once
// ctx is cancelled or waves is closed, even if the consumer stops
// reading. The error result is always nil.
func (s *System) SynthesizeStream(ctx context.Context, waves <-chan []Offer, pages PageFetcher, opts StreamOptions) (<-chan StreamResult, error) {
	sl := s.slot.Load()
	cfg := s.cfg
	if opts.FetchPolicy != nil {
		cfg.Fetch = *opts.FetchPolicy
	}
	// The channel holds Buffer+1 results: the run-ahead StreamOptions.Buffer
	// documents, with the fuse stage blocked holding one more once it fills.
	return stream.Run(ctx, s.store, sl.model.offline, waves, wrapFetch(pages, cfg), cfg, stream.Options{
		MaxOpenClusters: opts.MaxOpenClusters,
		MaxIdleWaves:    opts.MaxIdleWaves,
		DisableMemory:   opts.DisableClusterMemory,
		Buffer:          opts.Buffer + 1,
		Generation:      sl.gen,
	}), nil
}

// AddReport is the outcome of an AddToCatalog run, with rejected products
// separated by cause.
type AddReport struct {
	// Added counts products inserted into the catalog.
	Added int
	// KeyCollisions are products whose synthesized ID (prefix + cluster
	// key) collided with an existing product ID — typically the product
	// was already added by an earlier wave, or two synthesized products
	// share a key. Nothing is wrong with the product itself.
	KeyCollisions []Synthesized
	// SchemaViolations are products rejected on their own merits: a spec
	// attribute outside the category schema, or an unknown category.
	SchemaViolations []Synthesized
	// KeyShadowed are products that were added (they count in Added)
	// whose UPC/MPN key was already owned by a different catalog product:
	// Catalog.ProductByKey keeps resolving the key to the earlier product,
	// so these products are reachable by ID and category only.
	KeyShadowed []Synthesized
}

// Skipped returns every rejected product (collisions then violations),
// mirroring the pre-AddReport return value.
func (r AddReport) Skipped() []Synthesized {
	return append(append([]Synthesized(nil), r.KeyCollisions...), r.SchemaViolations...)
}

// AddToCatalog inserts synthesized products into the catalog as new
// product instances, assigning IDs with the given prefix. Rejected
// products are reported by cause: ID collisions with existing products
// distinctly from schema violations. Insertions bump the affected
// categories' versions, which evicts the matcher's warm indexes for those
// categories (see Catalog.CategoryVersion) — a following synthesis run
// observes the grown catalog.
//
// A product with no cluster key gets an ID reserved by the store itself
// (Catalog.AddProductAutoID) inside the insertion's critical section, so
// concurrent AddToCatalog calls — and repeated calls with the same prefix
// — can never mint colliding keyless IDs or misreport a valid product as
// a key collision. Keyed and generated IDs share the prefix namespace: a
// cluster key that is literally of the form "nokey-<n>" can collide with
// a previously generated ID and is then reported under KeyCollisions like
// any other ID collision.
func (s *System) AddToCatalog(products []Synthesized, idPrefix string) AddReport {
	var report AddReport
	for _, p := range products {
		if p.Key == "" {
			prod := Product{CategoryID: p.CategoryID, Spec: p.Spec}
			// The generated ID cannot collide, so any failure is a
			// schema-or-category rejection. The spec may still carry a
			// UPC/MPN that duplicates an existing key (the cluster key is
			// empty, not necessarily the spec), so shadowing is surfaced
			// here exactly as on the keyed path.
			switch _, out, err := s.store.AddProductAutoID(idPrefix, prod); {
			case err != nil:
				report.SchemaViolations = append(report.SchemaViolations, p)
			default:
				report.Added++
				if out.KeyShadowedBy != "" {
					report.KeyShadowed = append(report.KeyShadowed, p)
				}
			}
			continue
		}
		prod := Product{ID: idPrefix + "-" + p.Key, CategoryID: p.CategoryID, Spec: p.Spec}
		switch out, err := s.store.AddProductOutcome(prod); {
		case err == nil:
			report.Added++
			if out.KeyShadowedBy != "" {
				report.KeyShadowed = append(report.KeyShadowed, p)
			}
		case errors.Is(err, catalog.ErrDuplicateProduct):
			report.KeyCollisions = append(report.KeyCollisions, p)
		default:
			report.SchemaViolations = append(report.SchemaViolations, p)
		}
	}
	return report
}
