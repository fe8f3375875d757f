package router

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests, then fails the run with their stacks
// if goroutines the tests started are still alive after a one-second
// grace: a timer, drain or handler that outlives the test which started
// it runs on into the tests after it.
func TestMain(m *testing.M) {
	before := goroutines()
	code := m.Run()
	if code == 0 {
		if leaked := leakedSince(before, time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutines outlived the tests:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedSince returns the stacks of the goroutines missing from before,
// polling up to grace for them to exit.
func leakedSince(before map[string]string, grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		var leaked []string
		for id, stack := range goroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines maps each live goroutine's ID to its stack.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		// Each stack opens "goroutine <id> [<state>]:".
		if f := strings.Fields(stack); len(f) > 1 && f[0] == "goroutine" {
			out[f[1]] = stack
		}
	}
	return out
}
