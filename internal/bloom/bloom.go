// Package bloom implements the Bloom filter used by PDS redundancy
// detection (§III-B.2, §V-3).
//
// A consumer appends to each discovery query a Bloom filter of the
// metadata entries it has already received; nodes en route test entries
// against the filter before sending them back, and insert what they do
// send, so the same entry is never transmitted to the consumer twice.
//
// Per the paper's §V-3, the filter is salted per discovery round with a
// different hash seed: an entry that is a false positive in one round is
// very unlikely to remain one in the next (0.02 after 2 rounds, 0.003
// after 3 for 10,000 entries at 1% FPR), so a bounded filter size still
// converges to full recall over rounds.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Filter is a classic Bloom filter with double hashing. The zero Filter
// is unusable; construct with New or NewForCapacity.
type Filter struct {
	bits    []byte
	nbits   uint64
	nhashes uint32
	salt    uint64
	count   uint64 // inserted elements, approximate occupancy signal
	// overloaded caches EstimatedFPR() > overloadFPR for the current
	// count; see Overloaded.
	overloaded bool
}

// Default sizing targets used when the caller does not specify them.
const (
	// DefaultFalsePositiveRate is the per-round FPR target (§V-3: "a
	// small (e.g., < 0.01) false positive rate").
	DefaultFalsePositiveRate = 0.01
	// MaxBits caps the filter size so one filter always fits in a query
	// message even for very large received sets; salting across rounds
	// compensates for the elevated FPR (§V-3).
	MaxBits = 1 << 17 // 16 KiB
)

// New returns a filter with the exact geometry given. nbits is rounded up
// to a multiple of 8 and clamped to at least 8; nhashes is clamped to at
// least 1. salt distinguishes hash families across rounds.
func New(nbits uint64, nhashes uint32, salt uint64) *Filter {
	if nbits < 8 {
		nbits = 8
	}
	nbits = (nbits + 7) / 8 * 8
	if nbits > MaxBits {
		nbits = MaxBits
	}
	if nhashes == 0 {
		nhashes = 1
	}
	return &Filter{
		bits:    make([]byte, nbits/8),
		nbits:   nbits,
		nhashes: nhashes,
		salt:    salt,
	}
}

// NewForCapacity returns a filter sized for n expected elements at the
// target false-positive rate, using the standard formulas
// m = -n·ln(p)/ln(2)² and k = (m/n)·ln(2). The size is capped at MaxBits.
func NewForCapacity(n uint64, fpr float64, salt uint64) *Filter {
	if n == 0 {
		n = 1
	}
	if fpr <= 0 || fpr >= 1 {
		fpr = DefaultFalsePositiveRate
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpr) / (math.Ln2 * math.Ln2)))
	if m > MaxBits {
		// §V-3: the filter size is bounded; the hash count must be
		// optimized for the clamped geometry or large sets degenerate.
		m = MaxBits
	}
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k, salt)
}

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashPair returns the two independent base hashes for double hashing:
// FNV-1a over (salt big-endian, key), and over (0xd6, salt, key) — the
// distinct prefix byte makes h2 independent of h1 for the scheme
// g_i = h1 + i*h2. Both lanes run in one pass over the input, with the
// same bits hash/fnv would produce.
//
//pds:hotpath
func (f *Filter) hashPair(key string) (uint64, uint64) {
	h1, h2 := uint64(fnvOffset64), uint64(fnvOffset64)
	h2 = (h2 ^ 0xd6) * fnvPrime64
	for shift := 56; shift >= 0; shift -= 8 {
		b := uint64(byte(f.salt >> shift))
		h1 = (h1 ^ b) * fnvPrime64
		h2 = (h2 ^ b) * fnvPrime64
	}
	for i := 0; i < len(key); i++ {
		b := uint64(key[i])
		h1 = (h1 ^ b) * fnvPrime64
		h2 = (h2 ^ b) * fnvPrime64
	}
	return h1, h2 | 1 // force h2 odd so strides cover the table
}

// Add inserts the key. The distinct-element counter only advances when
// at least one bit was newly set, so repeated insertions of the same
// keys (which en-route rewriting does constantly) do not inflate the
// occupancy estimate.
//
//pds:hotpath
func (f *Filter) Add(key string) {
	h1, h2 := f.hashPair(key)
	changed := false
	for i := uint32(0); i < f.nhashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		mask := byte(1) << (bit % 8)
		if f.bits[bit/8]&mask == 0 {
			f.bits[bit/8] |= mask
			changed = true
		}
	}
	if changed {
		f.count++
		f.overloaded = f.EstimatedFPR() > overloadFPR
	}
}

// Contains reports whether the key may have been inserted. False
// positives are possible; false negatives are not.
//
//pds:hotpath
func (f *Filter) Contains(key string) bool {
	h1, h2 := f.hashPair(key)
	for i := uint32(0); i < f.nhashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls (an upper bound on distinct
// elements).
func (f *Filter) Count() uint64 { return f.count }

// Bits returns the size of the bit table.
func (f *Filter) Bits() uint64 { return f.nbits }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() uint32 { return f.nhashes }

// Salt returns the hash-family salt.
func (f *Filter) Salt() uint64 { return f.salt }

// EstimatedFPR returns the expected false-positive rate given the current
// occupancy: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFPR() float64 {
	if f.nbits == 0 {
		return 1
	}
	k := float64(f.nhashes)
	exp := -k * float64(f.count) / float64(f.nbits)
	return math.Pow(1-math.Exp(exp), k)
}

// Overloaded reports whether so many elements were inserted (relative
// to the filter's geometry) that Contains answers are untrustworthy.
// PDS queries carry filters sized by the consumer, but en-route
// rewriting inserts every entry served along the way; once the
// estimated false-positive rate passes 25% the filter must fail open —
// pruning on it would discard entries the consumer never received.
// Below that, residual false positives are tolerated: the per-round
// salting re-randomizes them, exactly the §V-3 argument (the paper
// quotes ~14% per-round FPR converging to 0.02 joint FPR in 2 rounds
// for 10,000 entries on a bounded filter).
//
// The flag is kept by the writers (Add, Clone, Decode) so this stays a
// pure read: frozen query filters are shared and may be read
// concurrently.
func (f *Filter) Overloaded() bool { return f.overloaded }

// overloadFPR is the estimated false-positive rate past which a filter
// is overloaded.
const overloadFPR = 0.25

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	out := &Filter{
		bits:       make([]byte, len(f.bits)),
		nbits:      f.nbits,
		nhashes:    f.nhashes,
		salt:       f.salt,
		count:      f.count,
		overloaded: f.overloaded,
	}
	copy(out.bits, f.bits)
	return out
}

// EncodedSize returns the number of bytes AppendBinary writes. The byte
// cost of carrying the filter inside query messages is charged to the
// message-overhead metric.
//
//pds:hotpath
func (f *Filter) EncodedSize() int {
	return uvarintLen(f.nbits) + uvarintLen(uint64(f.nhashes)) +
		uvarintLen(f.salt) + uvarintLen(f.count) + len(f.bits)
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendBinary appends the wire form: nbits, nhashes, salt, count, table.
func (f *Filter) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, f.nbits)
	dst = binary.AppendUvarint(dst, uint64(f.nhashes))
	dst = binary.AppendUvarint(dst, f.salt)
	dst = binary.AppendUvarint(dst, f.count)
	dst = append(dst, f.bits...)
	return dst
}

var errTruncated = errors.New("bloom: truncated encoding")

// uvarint reads one minimal uvarint and returns the bytes after it.
func uvarint(src []byte) (uint64, []byte, error) {
	v, used := binary.Uvarint(src)
	if used <= 0 {
		return 0, nil, errTruncated
	}
	if used != uvarintLen(v) {
		return 0, nil, errors.New("bloom: non-minimal uvarint")
	}
	return v, src[used:], nil
}

// Decode decodes a filter encoded by AppendBinary and returns the
// remaining bytes. It accepts only what AppendBinary writes: minimal
// uvarints, and a hash count from 1 to the table size, so a hostile
// frame cannot make each test loop billions of times.
func Decode(src []byte) (*Filter, []byte, error) {
	nbits, src, err := uvarint(src)
	if err != nil {
		return nil, nil, err
	}
	nhashes, src, err := uvarint(src)
	if err != nil {
		return nil, nil, err
	}
	salt, src, err := uvarint(src)
	if err != nil {
		return nil, nil, err
	}
	count, src, err := uvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if nbits == 0 || nbits%8 != 0 || nbits > MaxBits {
		return nil, nil, fmt.Errorf("bloom: invalid table size %d", nbits)
	}
	if nhashes == 0 || nhashes > nbits {
		return nil, nil, fmt.Errorf("bloom: invalid hash count %d for %d bits", nhashes, nbits)
	}
	nbytes := int(nbits / 8)
	if len(src) < nbytes {
		return nil, nil, errTruncated
	}
	f := &Filter{
		bits:    make([]byte, nbytes),
		nbits:   nbits,
		nhashes: uint32(nhashes),
		salt:    salt,
		count:   count,
	}
	f.overloaded = f.EstimatedFPR() > overloadFPR
	copy(f.bits, src[:nbytes])
	return f, src[nbytes:], nil
}
