// Package obstest holds test support shared across packages. For
// obs.Series tables it ties the series tables in the docs to the
// declarations, so the documented names, kinds, /stats keys and help
// texts cannot drift from what a process exports; RaceEnabled tells
// allocation-count tests when they mean nothing.
package obstest

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"faasbatch/internal/obs"
)

// DocTable renders rows as the markdown table body the docs carry: one
// line per row with the series name, kind, /stats key and help text.
func DocTable[S any](rows []obs.Series[S]) string {
	var b strings.Builder
	cell := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + s + "`"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", cell(r.Name), r.Kind, cell(r.Key), r.Help)
	}
	return b.String()
}

// CheckDoc fails t unless the table between the markers
// "<!-- series:<section> -->" and "<!-- /series -->" in the markdown file
// has exactly the rows want (DocTable output) under its two header lines.
func CheckDoc(t testing.TB, file, section, want string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	_, rest, ok := strings.Cut(string(raw), "<!-- series:"+section+" -->\n")
	body, _, closed := strings.Cut(rest, "<!-- /series -->")
	if !ok || !closed {
		t.Fatalf("%s has no <!-- series:%s --> section", file, section)
	}
	if parts := strings.SplitAfterN(body, "\n", 3); len(parts) != 3 || parts[2] != want {
		t.Errorf("%s section %q does not match the declarations; its rows should read:\n%s", file, section, want)
	}
}
