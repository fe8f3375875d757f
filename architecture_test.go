package faasbatch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// clockFree lists the decision cores: code that takes time as an
// argument and runs single-threaded under its caller, so the simulator
// and the live drivers feed it the same way. A directory names a whole
// package, a .go file one file of a package that also holds plumbing.
// multiplex and slo are not on the list: each holds a mutex by design.
var clockFree = []string{
	"internal/dispatch",
	"internal/autoscale",
	"internal/cpusched",
	"internal/node",
	"internal/core",
	"internal/sim",
	"internal/fnruntime",
	"internal/policy",
	"internal/pullsched",
	"internal/platform/shard.go",
}

// wallClock is every use of package time that reads the clock or arms a
// timer.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true, "Tick": true,
}

// TestClockFreeCores holds the architecture's one rule: a decision core
// reads no clock, arms no timer, starts no goroutine, touches no channel
// and imports no sync. The check is syntactic, over the non-test files.
func TestClockFreeCores(t *testing.T) {
	for _, target := range clockFree {
		files := []string{target}
		if !strings.HasSuffix(target, ".go") {
			all, err := filepath.Glob(filepath.Join(target, "*.go"))
			if err != nil || len(all) == 0 {
				t.Fatalf("%s: no Go files (%v)", target, err)
			}
			files = files[:0]
			for _, f := range all {
				if !strings.HasSuffix(f, "_test.go") {
					files = append(files, f)
				}
			}
		}
		for _, path := range files {
			for _, v := range clockViolations(t, path) {
				t.Errorf("%s: %s", v.pos, v.what)
			}
		}
	}
}

type violation struct {
	pos  token.Position
	what string
}

func clockViolations(t *testing.T, path string) []violation {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var out []violation
	report := func(n ast.Node, what string) {
		out = append(out, violation{fset.Position(n.Pos()), what})
	}
	timeName := ""
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		switch p {
		case "sync", "sync/atomic":
			report(imp, "imports "+p)
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && timeName != "" && x.Name == timeName && wallClock[n.Sel.Name] {
				report(n, "uses time."+n.Sel.Name)
			}
		case *ast.GoStmt:
			report(n, "starts a goroutine")
		case *ast.ChanType:
			report(n, "declares a channel type")
		case *ast.SendStmt:
			report(n, "sends on a channel")
		case *ast.SelectStmt:
			report(n, "selects")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n, "receives from a channel")
			}
		}
		return true
	})
	return out
}

// wallClockBudget is the ratchet on the live drivers: uses of the
// wallClock functions per non-test file under internal/. A count may fall
// but never rise, and a file missing here has a budget of zero, so new
// clock reads land in a decision core's caller only by raising a number
// in review. Lower a count when a change removes a use.
var wallClockBudget = map[string]int{
	"internal/obs/tracer.go":        2,
	"internal/platform/platform.go": 7,
	"internal/router/admission.go":  2,
	"internal/router/autoscale.go":  5,
	"internal/router/router.go":     4,
	"internal/router/wire.go":       4,
	"internal/scenario/live.go":     12,
	"internal/scenario/run.go":      1,
}

// TestWallClockRatchet counts, with go/ast, the uses (a call or the
// function taken as a value) of time.Now, Since, Until, After, AfterFunc,
// NewTimer, NewTicker, Sleep and Tick in every non-test file under
// internal/, and fails any file above its wallClockBudget.
func TestWallClockRatchet(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		var uses []string
		for _, v := range clockViolations(t, path) {
			if strings.HasPrefix(v.what, "uses time.") {
				uses = append(uses, v.pos.String())
			}
		}
		key := filepath.ToSlash(path)
		if budget := wallClockBudget[key]; len(uses) > budget {
			t.Errorf("%s: %d wall-clock uses, budget %d:\n\t%s", key, len(uses), budget, strings.Join(uses, "\n\t"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
