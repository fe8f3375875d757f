package multiplex

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchmarkHitPath measures steady-state hit throughput. shards=1 is the
// global-mutex baseline (every key funnels through one lock); shards=0 lets
// the cache pick its power-of-two striped layout. GOMAXPROCS is raised to
// the goroutine count so the contention is real even on small CI machines.
func benchmarkHitPath(b *testing.B, shards, goroutines int) {
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)

	cfg := Config{MaxEntries: 4096, Shards: shards}
	c := NewWithConfig(cfg)
	defer c.Close()

	const nkeys = 256
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = NewKey("client", fmt.Sprintf("args-%d", i))
		c.Begin(keys[i])
		c.Complete(keys[i], i, 64)
	}

	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger goroutines across the key space so they contend on
		// different shards, as real per-callee traffic does.
		i := cursor.Add(nkeys / 4)
		for pb.Next() {
			k := keys[i%nkeys]
			i++
			if res, _ := c.Begin(k); res != BeginHit {
				b.Fatalf("expected hit, got %v", res)
			}
		}
	})
}

func BenchmarkMultiplexShardedHit1(b *testing.B)  { benchmarkHitPath(b, 0, 1) }
func BenchmarkMultiplexShardedHit4(b *testing.B)  { benchmarkHitPath(b, 0, 4) }
func BenchmarkMultiplexShardedHit16(b *testing.B) { benchmarkHitPath(b, 0, 16) }

func BenchmarkMultiplexGlobalHit1(b *testing.B)  { benchmarkHitPath(b, 1, 1) }
func BenchmarkMultiplexGlobalHit4(b *testing.B)  { benchmarkHitPath(b, 1, 4) }
func BenchmarkMultiplexGlobalHit16(b *testing.B) { benchmarkHitPath(b, 1, 16) }

// benchmarkGetOrBuild exercises the blocking handler-facing face end to
// end (outcome classification and the loan's release included) on a hot
// working set.
func benchmarkGetOrBuild(b *testing.B, shards, goroutines int) {
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)

	cfg := Config{MaxEntries: 4096, Shards: shards}
	c := NewWithConfig(cfg)
	defer c.Close()

	const nkeys = 256
	keys := make([]Key, nkeys)
	build := func() (any, int64, error) { return "inst", 64, nil }
	for i := range keys {
		keys[i] = NewKey("client", fmt.Sprintf("args-%d", i))
		if _, _, err := acquire(c, context.Background(), keys[i], build); err != nil {
			b.Fatal(err)
		}
	}

	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(nkeys / 4)
		for pb.Next() {
			k := keys[i%nkeys]
			i++
			if _, out, err := acquire(c, context.Background(), k, build); err != nil || !out.Cached() {
				b.Fatalf("outcome=%v err=%v", out, err)
			}
		}
	})
}

func BenchmarkMultiplexShardedGet16(b *testing.B) { benchmarkGetOrBuild(b, 0, 16) }
func BenchmarkMultiplexGlobalGet16(b *testing.B)  { benchmarkGetOrBuild(b, 1, 16) }
