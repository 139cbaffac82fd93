package bloom

import (
	"bytes"
	"testing"
)

// FuzzDecode hammers the decoder with arbitrary bytes: it must never
// panic, and every filter it accepts must re-encode to exactly the
// bytes it consumed, keep the Overloaded invariant, and contain a key
// after adding it.
func FuzzDecode(f *testing.F) {
	for _, n := range []uint64{1, 10, 500} {
		g := NewForCapacity(n, 0.01, n)
		for _, k := range keys(int(n), "seed") {
			g.Add(k)
		}
		f.Add(g.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{8, 1, 0, 0, 0})
	f.Add([]byte{0x88, 0x00, 1, 0, 0, 0}) // non-minimal nbits
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest, err := Decode(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if re := g.AppendBinary(nil); !bytes.Equal(re, consumed) {
			t.Fatalf("re-encoded %x, consumed %x", re, consumed)
		}
		checkOverloaded(t, g, "Decode")
		key := string(rest)
		g.Add(key)
		checkOverloaded(t, g, "Add")
		if !g.Contains(key) {
			t.Fatalf("Contains(%q) false after Add", key)
		}
	})
}
