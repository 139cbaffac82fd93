package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

func keys(n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%06d", prefix, i)
	}
	return out
}

// TestNoFalseNegatives is the defining Bloom filter property: every
// inserted key must test positive.
func TestNoFalseNegatives(t *testing.T) {
	f := NewForCapacity(1000, 0.01, 42)
	in := keys(1000, "in")
	for _, k := range in {
		f.Add(k)
	}
	for _, k := range in {
		if !f.Contains(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

// TestFalsePositiveRate checks the FPR is near the configured target.
func TestFalsePositiveRate(t *testing.T) {
	const n = 5000
	f := NewForCapacity(n, 0.01, 7)
	for _, k := range keys(n, "in") {
		f.Add(k)
	}
	fp := 0
	probes := keys(20000, "out")
	for _, k := range probes {
		if f.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(len(probes))
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f > 0.03", rate)
	}
}

// TestSaltChangesFalsePositives verifies §V-3: an entry that is a false
// positive under one salt is almost never one under another, so
// per-round re-salting converges.
func TestSaltChangesFalsePositives(t *testing.T) {
	const n = 2000
	in := keys(n, "in")
	probes := keys(50000, "out")
	f1 := NewForCapacity(n, 0.02, 1)
	f2 := NewForCapacity(n, 0.02, 2)
	for _, k := range in {
		f1.Add(k)
		f2.Add(k)
	}
	both := 0
	one := 0
	for _, k := range probes {
		a, b := f1.Contains(k), f2.Contains(k)
		if a || b {
			one++
		}
		if a && b {
			both++
		}
	}
	if one == 0 {
		t.Skip("no false positives at all; nothing to compare")
	}
	if both*10 > one {
		t.Fatalf("salting ineffective: %d joint FPs of %d single FPs", both, one)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := NewForCapacity(500, 0.01, 99)
	for _, k := range keys(500, "x") {
		f.Add(k)
	}
	buf := f.AppendBinary(nil)
	if len(buf) != f.EncodedSize() {
		t.Fatalf("EncodedSize %d != encoded length %d", f.EncodedSize(), len(buf))
	}
	g, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if g.Bits() != f.Bits() || g.Hashes() != f.Hashes() || g.Salt() != f.Salt() || g.Count() != f.Count() {
		t.Fatal("geometry not preserved")
	}
	for _, k := range keys(500, "x") {
		if !g.Contains(k) {
			t.Fatalf("decoded filter lost %q", k)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	f := NewForCapacity(10, 0.01, 1)
	f.Add("a")
	buf := f.AppendBinary(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestDecodeRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		what string
		enc  []byte
	}{
		{"nbits=9", []byte{9, 1, 0, 0, 0xff, 0xff}},
		{"nhashes=0", []byte{8, 0, 0, 0, 0xff}},
		{"nhashes=9 > nbits=8", []byte{8, 9, 0, 0, 0xff}},
		{"nhashes=2^32", []byte{8, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0xff}},
		{"non-minimal nbits", []byte{0x88, 0x00, 1, 0, 0, 0xff}},
		{"non-minimal count", []byte{8, 1, 0, 0x80, 0x00, 0xff}},
	} {
		if _, _, err := Decode(c.enc); err == nil {
			t.Errorf("accepted %s", c.what)
		}
	}
}

func TestOverloaded(t *testing.T) {
	f := NewForCapacity(10, 0.01, 3)
	for _, k := range keys(10, "a") {
		f.Add(k)
	}
	if f.Overloaded() {
		t.Fatal("filter overloaded at design capacity")
	}
	for _, k := range keys(2000, "b") {
		f.Add(k)
	}
	if !f.Overloaded() {
		t.Fatalf("filter not overloaded after 200x capacity (fpr=%.4f)", f.EstimatedFPR())
	}
}

func TestAddCountsDistinct(t *testing.T) {
	f := NewForCapacity(100, 0.01, 5)
	for i := 0; i < 50; i++ {
		f.Add("same-key")
	}
	if f.Count() != 1 {
		t.Fatalf("Count = %d after repeated Add of one key, want 1", f.Count())
	}
}

func TestClone(t *testing.T) {
	f := NewForCapacity(100, 0.01, 5)
	f.Add("a")
	g := f.Clone()
	g.Add("b")
	if f.Contains("b") {
		t.Fatal("mutation of clone visible in original")
	}
	if !g.Contains("a") || !g.Contains("b") {
		t.Fatal("clone lost content")
	}
}

func TestSizeCap(t *testing.T) {
	f := NewForCapacity(1<<30, 0.0001, 1)
	if f.Bits() > MaxBits {
		t.Fatalf("Bits %d exceeds MaxBits %d", f.Bits(), MaxBits)
	}
}

func TestNewClamps(t *testing.T) {
	f := New(0, 0, 1)
	if f.Bits() < 8 || f.Hashes() < 1 {
		t.Fatalf("New(0,0) gave bits=%d hashes=%d", f.Bits(), f.Hashes())
	}
	// Bad fpr falls back to the default.
	g := NewForCapacity(100, 42.0, 1)
	if g.Bits() == 0 {
		t.Fatal("NewForCapacity with bad fpr produced empty filter")
	}
}

// TestQuickNoFalseNegatives property-tests membership after random
// insertion orders.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		filter := NewForCapacity(uint64(n)+1, 0.01, uint64(seed))
		inserted := make([]string, 0, n)
		for i := 0; i < int(n); i++ {
			k := fmt.Sprintf("k%d", rng.Int63())
			filter.Add(k)
			inserted = append(inserted, k)
		}
		for _, k := range inserted {
			if !filter.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEncodeRoundTrip property-tests codec stability.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		filter := NewForCapacity(uint64(n)+1, 0.02, uint64(seed))
		for i := 0; i < int(n); i++ {
			filter.Add(fmt.Sprintf("k%d", rng.Int63()))
		}
		buf := filter.AppendBinary(nil)
		if len(buf) != filter.EncodedSize() {
			return false
		}
		g, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return g.Bits() == filter.Bits() && g.Count() == filter.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refHashPair is hashPair written with hash/fnv: FNV-1a over (salt
// big-endian, key), and over (0xd6, salt, key) forced odd.
func refHashPair(salt uint64, key string) (uint64, uint64) {
	var saltBuf [8]byte
	binary.BigEndian.PutUint64(saltBuf[:], salt)
	h := fnv.New64a()
	h.Write(saltBuf[:])
	h.Write([]byte(key))
	h1 := h.Sum64()
	h.Reset()
	h.Write([]byte{0xd6})
	h.Write(saltBuf[:])
	h.Write([]byte(key))
	return h1, h.Sum64() | 1
}

// TestHashPairMatchesFNV pins the inlined two-lane hash to hash/fnv over
// random salts and keys of 0–80 bytes: every filter bit stays where the
// wire format and earlier releases put it.
func TestHashPairMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		salt := rng.Uint64()
		if i%10 == 0 {
			salt = uint64(i) // small salts: leading zero bytes
		}
		key := make([]byte, rng.Intn(81))
		rng.Read(key)
		f := New(64, 3, salt)
		g1, g2 := f.hashPair(string(key))
		w1, w2 := refHashPair(salt, string(key))
		if g1 != w1 || g2 != w2 {
			t.Fatalf("salt %#x key %x: hashPair (%#x, %#x), hash/fnv (%#x, %#x)", salt, key, g1, g2, w1, w2)
		}
	}
}

// checkOverloaded asserts the Overloaded invariant the writers keep.
func checkOverloaded(t *testing.T, f *Filter, at string) {
	t.Helper()
	if f.Overloaded() != (f.EstimatedFPR() > 0.25) {
		t.Fatalf("%s: Overloaded()=%v but EstimatedFPR()=%.4f", at, f.Overloaded(), f.EstimatedFPR())
	}
}

// TestOverloadedTracksEstimate: Overloaded equals EstimatedFPR() > 0.25
// after New, every Add, Clone and Decode, through the crossing.
func TestOverloadedTracksEstimate(t *testing.T) {
	f := New(64, 3, 9)
	checkOverloaded(t, f, "New")
	crossed := false
	for i, k := range keys(200, "k") {
		f.Add(k)
		checkOverloaded(t, f, fmt.Sprintf("Add #%d", i))
		checkOverloaded(t, f.Clone(), fmt.Sprintf("Clone after Add #%d", i))
		g, _, err := Decode(f.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		checkOverloaded(t, g, fmt.Sprintf("Decode after Add #%d", i))
		crossed = crossed || f.Overloaded()
	}
	if !crossed {
		t.Fatal("filter never overloaded: the crossing was not exercised")
	}
}
