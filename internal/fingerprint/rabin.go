// Package fingerprint implements content-defined chunking, the fallback
// mechanism Mirage uses to produce a compact representation of
// environmental resources for which no parser exists (paper §3.2.3,
// "Resource fingerprinting"), and the whole-content digests Mirage keys
// everything by.
//
// A Rabin fingerprint treats a byte string as a polynomial over GF(2) and
// reduces it modulo a fixed irreducible polynomial. Because the fingerprint
// of a sliding window can be updated incrementally in O(1) per byte, it is
// the standard primitive for content-defined chunking (CDC): a chunk
// boundary is declared wherever the windowed fingerprint matches a target
// pattern, so boundaries depend only on local content and survive
// insertions and deletions elsewhere in the file. The paper uses the LBFS
// implementation with 4 KB average chunks; this package reimplements the
// same scheme from scratch, with LBFS's fixed parameters. As in LBFS, the
// rolling fingerprint only finds boundaries: a chunk is known by the
// HashBytes digest of its whole contents, which is both the CHUNK_HASH
// item the fingerprint reports and the address the distribution layer
// stores and moves the chunk under.
//
// The fingerprint at a byte is a window function: it depends on the
// windowSize bytes ending there and on nothing before them, and no
// boundary is checked closer than minSize to a chunk's start, so the
// window is always full where one is. Split therefore finds every byte
// whose window matches over the whole input first, without knowing where
// chunks begin, then cuts among those bytes. That first pass rolls four
// runs of a block in one loop, each lane taking the byte leaving its
// window from the input itself, so the lanes' table lookups overlap
// instead of waiting on one another.
package fingerprint

// poly is an irreducible polynomial of degree 53 over GF(2), the same
// degree used by LBFS. The low 53 bits hold the coefficients of
// x^52..x^0; the x^53 term is implicit.
const (
	poly       uint64 = 0x3DA3358B4DC173
	polyDegree        = 53
)

// windowSize is the number of bytes over which the rolling fingerprint is
// computed. 48 bytes matches the LBFS window.
const windowSize = 48

// align is how far the rolling value sits left of the fingerprint it
// holds: the polyDegree coefficients fill the top of a uint64 and the low
// align bits stay zero. Shifting the value left by a byte then drops
// exactly the byte modTable folds back in, and that byte, v>>56, indexes
// the table with no mask and no bounds check.
const align = 64 - polyDegree

// modTable[b] is (b << polyDegree) mod poly for every byte b, used to fold
// the high byte of the running value. outTable[b] is the contribution a
// byte b that entered windowSize steps ago would carry now, used to remove
// the oldest byte as the window slides. Both hold aligned values and are
// built once, when the package initialises.
var modTable, outTable = buildTables()

// polyMod reduces value modulo poly (carry-less arithmetic).
func polyMod(value uint64) uint64 {
	for i := 63; i >= polyDegree; i-- {
		if value&(1<<i) != 0 {
			value ^= poly << (i - polyDegree)
		}
	}
	return value
}

// polyMulMod computes (a*b) mod poly in GF(2)[x].
func polyMulMod(a, b uint64) uint64 {
	var res uint64
	for b != 0 {
		if b&1 != 0 {
			res ^= a
		}
		b >>= 1
		a <<= 1
		if a&(1<<polyDegree) != 0 {
			a ^= poly
		}
	}
	return res
}

func buildTables() (mod, out [256]uint64) {
	for b := range 256 {
		mod[b] = polyMod(uint64(b)<<polyDegree) << align
	}
	// out[b] = b * x^(8*windowSize) mod poly — the weight the oldest
	// window byte would carry after the shift that admits the incoming
	// byte, so evicting it is one XOR off the value's dependency chain.
	shiftN := uint64(1)
	for range 8 * windowSize {
		shiftN = polyMulMod(shiftN, 2)
	}
	for b := range 256 {
		out[b] = polyMulMod(uint64(b), shiftN) << align
	}
	return mod, out
}

// roll slides a window whose aligned fingerprint is v forward by one byte:
// out, the byte windowSize positions back, leaves it and in enters it. A
// byte entering a window that is not yet full pushes out a zero.
func roll(v uint64, out, in byte) uint64 {
	// value = (v*x^8 + in - out*x^(8W)) mod poly; subtraction is XOR.
	return v<<8 ^ uint64(in)<<align ^ outTable[out] ^ modTable[v>>56]
}
