package scenario

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committedScenario parses scenarios/<name>.yaml from the repository root.
func committedScenario(t testing.TB, name string) *Scenario {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name+".yaml"))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return sc
}

// TestCommittedReportHashes pins the report of every committed scenario
// commit against commit: TestDeterminismCorpus and faasstress -repeat only
// compare a run with itself, so a change that reorders two same-instant
// events passes both and still moves every paper-facing number.
func TestCommittedReportHashes(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "report_hashes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runner := NewRunner()
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		name, want, ok := strings.Cut(lines.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "fleet-1m" {
				t.Skip("a million invocations; run without -short")
			}
			rep, err := runner.Run(committedScenario(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if rep.BodySHA256 != want {
				t.Errorf("body_sha256 = %s, want %s", rep.BodySHA256, want)
			}
		})
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
}
