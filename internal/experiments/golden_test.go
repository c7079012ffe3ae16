package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the committed goldens instead of comparing against them:
//
//	go test ./internal/experiments -run 'RunAllParallel|FleetSummaryDeterministic|MQSummaryByteIdentical|MQDeterminismMatrix' -update
//
// The goldens pin the simulated output byte for byte across commits, so a
// refactor that claims "no change in behaviour" is checked against the
// tree it started from, not only against itself.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden compares got with testdata/<name>.golden, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from the committed golden:\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
