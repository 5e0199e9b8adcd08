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

// modTable[b] is (b << polyDegree) mod poly for every byte b, used to fold
// the high byte of the running value. outTable[b] is the contribution of
// byte b after it has been shifted through the whole window, used to
// remove the oldest byte as the window slides. Both are built once, when
// the package initialises.
var modTable, outTable = buildTables()

// rabin is a Rabin fingerprint over a sliding window of the last
// windowSize bytes rolled. Its zero value is an empty window.
type rabin struct {
	window [windowSize]byte
	pos    int
	value  uint64
}

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
		mod[b] = polyMod(uint64(b) << polyDegree)
	}
	// out[b] = b * x^(8*(windowSize-1)) mod poly — the weight the oldest
	// window byte carries at the moment it is evicted, before the value
	// is shifted to admit the incoming byte.
	shiftN := uint64(1)
	for range 8 * (windowSize - 1) {
		shiftN = polyMulMod(shiftN, 2)
	}
	for b := range 256 {
		out[b] = polyMulMod(uint64(b), shiftN)
	}
	return mod, out
}

// roll slides the window forward by one byte and returns the updated
// fingerprint.
func (r *rabin) roll(b byte) uint64 {
	out := r.window[r.pos]
	r.window[r.pos] = b
	if r.pos++; r.pos == windowSize {
		r.pos = 0
	}
	// Remove the outgoing byte's contribution, then append the new byte:
	// value = ((value ^ out*x^(8W)) * x^8 + b) mod poly.
	r.value ^= outTable[out]
	top := byte(r.value >> (polyDegree - 8))
	r.value = (r.value<<8 | uint64(b)) & (1<<polyDegree - 1)
	r.value ^= modTable[top]
	return r.value
}
