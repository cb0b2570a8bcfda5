package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
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
