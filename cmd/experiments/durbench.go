package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"prodsynth"
)

// The durability benchmark sizes by -scale (validated by realMain): how
// many products flow through the WAL, the snapshot codec, and replay.
func durBenchProducts(scale string) int {
	switch scale {
	case "small":
		return 2_000
	case "large":
		return 100_000
	}
	return 20_000
}

// durBenchReport is the machine-readable shape written to -durbench
// (BENCH_catalog.json): the out-of-core catalog's three hot paths —
// snapshot encode/decode throughput, WAL append latency, and recovery
// replay rate — plus the compaction cost that trades the latter two off.
type durBenchReport struct {
	GeneratedAt string `json:"generated_at"`
	Scale       string `json:"scale"`
	Products    int    `json:"products"`
	Categories  int    `json:"categories"`

	SnapshotBytes        int64   `json:"snapshot_bytes"`
	SnapshotEncodeMBPerS float64 `json:"snapshot_encode_mb_per_s"`
	SnapshotDecodeMBPerS float64 `json:"snapshot_decode_mb_per_s"`

	LogAppendNsPerRecord int64 `json:"log_append_ns_per_record"`
	LogBytes             int64 `json:"log_bytes"`

	ReplayRecordsPerSec float64 `json:"replay_records_per_sec"`
	RecoveryMS          float64 `json:"recovery_ms"`
	CompactMS           float64 `json:"compact_ms"`
	SnapshotRecoveryMS  float64 `json:"snapshot_recovery_ms"`
}

// runDurBench measures the durable catalog layer on a synthetic
// fixed-shape catalog (independent of the experiment dataset, so numbers
// compare across scales) and writes the JSON report to path, echoing a
// summary to w.
//
// Append latency is measured under SyncNone: it prices the WAL encode +
// write path itself, not the disk's fsync, which SyncAlways would make
// the whole number.
func runDurBench(w io.Writer, rc runConfig, path string) error {
	dir, err := os.MkdirTemp("", "durbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	n := durBenchProducts(rc.scale)
	const ncats = 4
	opts := prodsynth.DurabilityOptions{Fsync: prodsynth.SyncNone}

	d, err := prodsynth.OpenDurable(dir, opts)
	if err != nil {
		return err
	}
	store := d.Catalog()
	for c := 0; c < ncats; c++ {
		err := store.AddCategory(prodsynth.Category{
			ID:   fmt.Sprintf("cat-%d", c),
			Name: fmt.Sprintf("Category %d", c),
			Schema: prodsynth.Schema{Attributes: []prodsynth.Attribute{
				{Name: prodsynth.AttrUPC, Kind: prodsynth.KindIdentifier},
				{Name: "Brand", Kind: prodsynth.KindCategorical},
				{Name: "Weight", Kind: prodsynth.KindNumeric, Unit: "kg"},
			}},
		})
		if err != nil {
			return err
		}
	}

	// WAL append path: every AddProduct commits one framed record.
	start := time.Now()
	for i := 0; i < n; i++ {
		err := store.AddProduct(prodsynth.Product{
			ID:         fmt.Sprintf("p-%07d", i),
			CategoryID: fmt.Sprintf("cat-%d", i%ncats),
			Spec: prodsynth.Spec{
				{Name: prodsynth.AttrUPC, Value: fmt.Sprintf("%012d", i)},
				{Name: "Brand", Value: fmt.Sprintf("brand-%d", i%37)},
				{Name: "Weight", Value: fmt.Sprintf("%d.%d", i%9+1, i%10)},
			},
		})
		if err != nil {
			return err
		}
	}
	appendNs := time.Since(start).Nanoseconds() / int64(n)
	if err := d.Sync(); err != nil {
		return err
	}
	logBytes := int64(d.Stats().LogDepthBytes)

	// Snapshot codec throughput over the same catalog.
	var buf bytes.Buffer
	start = time.Now()
	if err := prodsynth.SaveCatalog(&buf, store); err != nil {
		return err
	}
	encS := time.Since(start).Seconds()
	snapBytes := int64(buf.Len())
	start = time.Now()
	if _, err := prodsynth.LoadCatalog(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	decS := time.Since(start).Seconds()
	mb := float64(snapBytes) / (1 << 20)

	// Recovery replay rate: reopen the directory, whose state is still
	// (empty snapshot + full log).
	if err := d.Close(); err != nil {
		return err
	}
	d2, err := prodsynth.OpenDurable(dir, opts)
	if err != nil {
		return err
	}
	rec := d2.Stats().Recovery
	replayPerSec := 0.0
	if rec.Duration > 0 {
		replayPerSec = float64(rec.ReplayedRecords) / rec.Duration.Seconds()
	}

	// Compaction, then a third open measures snapshot-backed recovery.
	start = time.Now()
	if err := d2.Compact(); err != nil {
		return err
	}
	compactS := time.Since(start).Seconds()
	if err := d2.Close(); err != nil {
		return err
	}
	d3, err := prodsynth.OpenDurable(dir, opts)
	if err != nil {
		return err
	}
	snapRec := d3.Stats().Recovery
	if err := d3.Close(); err != nil {
		return err
	}

	rep := durBenchReport{
		GeneratedAt:          time.Now().UTC().Format(time.RFC3339),
		Scale:                rc.scale,
		Products:             n,
		Categories:           ncats,
		SnapshotBytes:        snapBytes,
		SnapshotEncodeMBPerS: mb / encS,
		SnapshotDecodeMBPerS: mb / decS,
		LogAppendNsPerRecord: appendNs,
		LogBytes:             logBytes,
		ReplayRecordsPerSec:  replayPerSec,
		RecoveryMS:           float64(rec.Duration.Microseconds()) / 1e3,
		CompactMS:            compactS * 1e3,
		SnapshotRecoveryMS:   float64(snapRec.Duration.Microseconds()) / 1e3,
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n## durable catalog bench (%s)\n", rc.scale)
	fmt.Fprintf(w, "products            %d across %d categories\n", n, ncats)
	fmt.Fprintf(w, "snapshot            %.1f MiB, encode %.0f MB/s, decode %.0f MB/s\n", mb, rep.SnapshotEncodeMBPerS, rep.SnapshotDecodeMBPerS)
	fmt.Fprintf(w, "log append          %d ns/record (SyncNone), %d bytes\n", appendNs, logBytes)
	fmt.Fprintf(w, "replay              %.0f records/s (log recovery %.1f ms)\n", replayPerSec, rep.RecoveryMS)
	fmt.Fprintf(w, "compact             %.1f ms; snapshot-backed recovery %.1f ms\n", rep.CompactMS, rep.SnapshotRecoveryMS)
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
