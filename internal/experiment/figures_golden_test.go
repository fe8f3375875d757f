package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.golden")

// TestFiguresGolden pins every reproduced table at paper scale: the
// registry rendered at DefaultOptions must match testdata/figures.golden
// byte for byte, so a model or harness change that moves any number in
// any figure fails here. Regenerate with `go test -run TestFiguresGolden
// -update ./internal/experiment` after a deliberate change.
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for _, f := range Figures() {
		fmt.Fprintf(&got, "== %s ==\n", f.Title)
		if err := f.Run(&got, DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		got.WriteString("\n")
	}
	path := filepath.Join("testdata", "figures.golden")
	if *updateFigures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("figures differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
