// Package hashmix provides the splitmix64-finalised FNV-1a hashing
// shared by the consistent-hash ring (internal/router), trace-ID salts
// and scenario seeds; the resource multiplexer (internal/multiplex)
// hashes creation arguments with its plain FNV-1a.
//
// Raw FNV-1a avalanches poorly on trailing-byte differences: adjacent
// strings like "w1#0".."w1#63" (virtual nodes) or "fn-0".."fn-99" land on
// one tight arc of the 64-bit space. Passing the digest through a
// splitmix64 finaliser fixes the avalanche, so ownership arcs spread
// evenly. The pipeline is deterministic across processes and platforms —
// the simulator's cluster dispatcher and the live router agree on all
// assignments (the sim-vs-live conformance and distribution tests depend
// on it), which is why they must share one implementation instead of
// drifting copies.
package hashmix

import "hash/fnv"

// Mix64 applies the splitmix64 finaliser to x: a full-avalanche bijection
// over uint64 (Steele et al., "Fast Splittable Pseudorandom Number
// Generators", the mix used by java.util.SplittableRandom).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FNV64a is the plain FNV-1a digest of s (no finalisation) — use when a
// caller needs to fold further material in before mixing.
func FNV64a(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv.Write never fails
	return h.Sum64()
}

// String hashes s with FNV-1a and finalises with Mix64: the well-spread
// 64-bit hash the router places on its ring.
func String(s string) uint64 {
	return Mix64(FNV64a(s))
}
