package multiplex

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// hotCache returns a cache holding nkeys ready instances, built through
// the blocking face.
func hotCache(b *testing.B, nkeys int) (*Cache, []Key) {
	c := NewWithConfig(Config{MaxEntries: 4096})
	b.Cleanup(func() { c.Close() })
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = NewKey("client", fmt.Sprintf("args-%d", i))
		if _, _, err := acquire(c, context.Background(), keys[i], buildInst); err != nil {
			b.Fatal(err)
		}
	}
	return c, keys
}

func buildInst() (any, int64, error) { return "inst", 64, nil }

// BenchmarkMultiplexHit measures steady-state hits on the event-driven
// face, one goroutine per P over a 256-key working set.
func BenchmarkMultiplexHit(b *testing.B) {
	c, keys := hotCache(b, 256)
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger goroutines across the key space, as per-callee traffic is.
		i := cursor.Add(uint64(len(keys) / 4))
		for pb.Next() {
			if res, _ := c.Begin(keys[i%uint64(len(keys))]); res != BeginHit {
				b.Fatalf("expected hit, got %v", res)
			}
			i++
		}
	})
}

// BenchmarkMultiplexGet exercises the blocking handler-facing face end to
// end (outcome classification and the loan's release included) on the
// same hot working set.
func BenchmarkMultiplexGet(b *testing.B) {
	c, keys := hotCache(b, 256)
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(uint64(len(keys) / 4))
		for pb.Next() {
			k := keys[i%uint64(len(keys))]
			if _, out, err := acquire(c, context.Background(), k, buildInst); err != nil || !out.Cached() {
				b.Fatalf("outcome=%v err=%v", out, err)
			}
			i++
		}
	})
}
