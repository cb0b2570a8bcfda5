package prodsynth

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// catalogBytes renders a catalog in the canonical snapshot encoding, the
// byte-identity yardstick for recovery tests.
func catalogBytes(t *testing.T, store *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, store); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDurableLifecycle drives the public durability API through the full
// product-synthesis loop: seed a data dir from a generated marketplace,
// learn and synthesize against the durable catalog, commit the products
// with AddToCatalog, then reopen the directory and require the recovered
// catalog to be byte-identical — first from the log tail alone, then
// again after an explicit Compact.
func TestDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	ds := marketplace(t)

	d, err := OpenDurable(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ImportCatalog(ds.Catalog); err != nil {
		t.Fatal(err)
	}
	store := d.Catalog()
	if got, want := catalogBytes(t, store), catalogBytes(t, ds.Catalog); !bytes.Equal(got, want) {
		t.Fatal("imported catalog differs from source")
	}
	// A second import must refuse: recovery owns existing state.
	if err := d.ImportCatalog(ds.Catalog); err == nil {
		t.Fatal("ImportCatalog into non-empty store succeeded")
	}

	sys := learnSystem(t, store, ds)
	res, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, MapFetcher(ds.Pages))
	if err != nil {
		t.Fatal(err)
	}
	if rep := sys.AddToCatalog(res.Products, "dur"); rep.Added == 0 {
		t.Fatal("AddToCatalog added nothing")
	}
	want := catalogBytes(t, store)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover from snapshot + log tail.
	d2, err := OpenDurable(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := catalogBytes(t, d2.Catalog()); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs from the one we closed")
	}
	st := d2.Stats()
	if st.Recovery.ReplayedRecords == 0 {
		t.Errorf("recovery replayed 0 records, want the AddToCatalog tail; stats %+v", st.Recovery)
	}

	// Compact, recover again: now purely snapshot-backed.
	if err := d2.Compact(); err != nil {
		t.Fatal(err)
	}
	if depth := d2.Stats().LogDepthRecords; depth != 0 {
		t.Errorf("log depth after Compact = %d, want 0", depth)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurable(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := catalogBytes(t, d3.Catalog()); !bytes.Equal(got, want) {
		t.Fatal("post-compaction recovery differs")
	}
	if rr := d3.Stats().Recovery.ReplayedRecords; rr != 0 {
		t.Errorf("post-compaction recovery replayed %d records, want 0", rr)
	}
}

// TestWithDurabilitySpillsStreams pins the WithDurability wiring: a
// system built with it spills bounded-out clusters to scratch files under
// <data-dir>/spill, the streamed output stays byte-identical to one-shot,
// and the scratch files are gone when the stream ends.
func TestWithDurabilitySpillsStreams(t *testing.T) {
	dir := t.TempDir()
	ds := marketplace(t)

	d, err := OpenDurable(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.ImportCatalog(ds.Catalog); err != nil {
		t.Fatal(err)
	}

	sys := learnSystem(t, d.Catalog(), ds, WithDurability(d))
	fetcher := MapFetcher(ds.Pages)
	oneShot, err := sys.SynthesizeContext(context.Background(), ds.IncomingOffers, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	want := productFingerprints(oneShot.Products)

	waves := contiguousWaves(ds.IncomingOffers, len(ds.IncomingOffers))
	perWave, final := runStream(t, sys, waves, fetcher, StreamOptions{MaxOpenClusters: 1})
	got := productFingerprints(final.Products)
	if len(got) != len(want) {
		t.Fatalf("%d streamed products vs %d one-shot", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("product %d differs:\n  streamed: %s\n  one-shot: %s", i, got[i], want[i])
		}
	}
	spilled := false
	for _, r := range perWave {
		if r.SpilledClusters > 0 {
			spilled = true
			break
		}
	}
	if !spilled {
		t.Error("MaxOpenClusters=1 stream never spilled a cluster")
	}
	// The spill directory exists (the factory ran) and holds no leftover
	// scratch: stream teardown removes its file.
	left, err := os.ReadDir(filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatalf("spill dir: %v", err)
	}
	if len(left) != 0 {
		t.Errorf("spill scratch left behind: %v", left)
	}
}
