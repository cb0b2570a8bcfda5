package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"prodsynth/internal/core"
	"prodsynth/internal/experiments"
)

// TestUnknownScaleRejected pins -scale validation: a scale the corpus
// sizing does not know exits with status 2 before any work, instead of
// silently running the medium corpus.
func TestUnknownScaleRejected(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ContinueOnError)
	os.Args = []string{"experiments", "-table2", "-scale", "bogus", "-out", filepath.Join(t.TempDir(), "report.txt")}
	if code := realMain(); code != 2 {
		t.Fatalf("realMain with -scale bogus = %d, want 2", code)
	}
}

// TestStreamReplayMismatchFails pins that the -stream replay's verdict is
// its outcome: against the true one-shot result the replay succeeds, and
// with one product dropped from that reference the merged stream output
// no longer matches, so the replay returns an error rather than only
// printing MISMATCH.
func TestStreamReplayMismatchFails(t *testing.T) {
	env, err := experiments.Setup(context.Background(), scaleConfig("small"), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runStreamReplay(io.Discard, env, 4); err != nil {
		t.Fatalf("replay against the one-shot result: %v", err)
	}
	env.Runtime.Products = env.Runtime.Products[1:]
	if err := runStreamReplay(io.Discard, env, 4); err == nil {
		t.Fatal("replay against a reference missing one product returned nil, want a mismatch error")
	}
}
