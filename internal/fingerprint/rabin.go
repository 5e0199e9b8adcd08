// Package fingerprint implements Rabin fingerprinting and content-defined
// chunking, the fallback mechanism Mirage uses to produce a compact
// representation of environmental resources for which no parser exists
// (paper §3.2.3, "Resource fingerprinting").
//
// A Rabin fingerprint treats a byte string as a polynomial over GF(2) and
// reduces it modulo a fixed irreducible polynomial. Because the fingerprint
// of a sliding window can be updated incrementally in O(1) per byte, it is
// the standard primitive for content-defined chunking (CDC): a chunk
// boundary is declared wherever the windowed fingerprint matches a target
// pattern, so boundaries depend only on local content and survive
// insertions and deletions elsewhere in the file. The paper uses the LBFS
// implementation with 4 KB average chunks; this package reimplements the
// same scheme from scratch.
package fingerprint

// DefaultPoly is an irreducible polynomial of degree 53 over GF(2),
// the same degree used by LBFS. The low 53 bits hold the coefficients of
// x^52..x^0; the x^53 term is implicit.
const DefaultPoly uint64 = 0x3DA3358B4DC173

// WindowSize is the number of bytes over which the rolling fingerprint is
// computed. 48 bytes matches the LBFS window.
const WindowSize = 48

// Rabin computes Rabin fingerprints over a sliding window.
// The zero value is not usable; construct with NewRabin.
type Rabin struct {
	poly   uint64
	shift  uint // degree of poly
	window [WindowSize]byte
	pos    int
	value  uint64

	// Precomputed tables. modTable[b] is (b << degree) mod poly for every
	// byte b, used to fold the high byte of the running value. outTable[b]
	// is the contribution of byte b after it has been shifted through the
	// whole window, used to remove the oldest byte as the window slides.
	modTable [256]uint64
	outTable [256]uint64
}

// NewRabin returns a rolling Rabin fingerprinter using poly as the modulus.
// If poly is zero, DefaultPoly is used.
func NewRabin(poly uint64) *Rabin {
	if poly == 0 {
		poly = DefaultPoly
	}
	r := &Rabin{poly: poly}
	r.shift = degree(poly)
	r.buildTables()
	r.Reset()
	return r
}

// degree returns the degree of the polynomial represented by p, counting
// the implicit leading term. For DefaultPoly this is 53.
func degree(p uint64) uint {
	d := uint(0)
	for i := uint(0); i < 64; i++ {
		if p&(1<<i) != 0 {
			d = i
		}
	}
	return d
}

// polyMod reduces value modulo the polynomial p (carry-less arithmetic).
func polyMod(value, p uint64, deg uint) uint64 {
	for i := 63; i >= int(deg); i-- {
		if value&(1<<uint(i)) != 0 {
			value ^= p << (uint(i) - deg)
		}
	}
	return value
}

// polyMulMod computes (a*b) mod p in GF(2)[x].
func polyMulMod(a, b, p uint64, deg uint) uint64 {
	var res uint64
	for b != 0 {
		if b&1 != 0 {
			res ^= a
		}
		b >>= 1
		a <<= 1
		if a&(1<<deg) != 0 {
			a ^= p
		}
	}
	return res
}

func (r *Rabin) buildTables() {
	deg := r.shift
	// T = x^deg mod poly; used to reduce the byte shifted out of the top.
	// modTable[b] = (b * x^deg) mod poly.
	for b := 0; b < 256; b++ {
		r.modTable[b] = polyMod(uint64(b)<<deg, r.poly, deg)
	}
	// outTable[b] = b * x^(8*(WindowSize-1)) mod poly — the weight the
	// oldest window byte carries at the moment it is evicted, before the
	// value is shifted to admit the incoming byte.
	shiftN := uint64(1)
	for i := 0; i < 8*(WindowSize-1); i++ {
		shiftN = polyMulMod(shiftN, 2, r.poly, deg)
	}
	for b := 0; b < 256; b++ {
		r.outTable[b] = polyMulMod(uint64(b), shiftN, r.poly, deg)
	}
}

// Reset clears the window and the running fingerprint.
func (r *Rabin) Reset() {
	r.window = [WindowSize]byte{}
	r.pos = 0
	r.value = 0
}

// Roll slides the window forward by one byte and returns the updated
// fingerprint.
func (r *Rabin) Roll(b byte) uint64 {
	out := r.window[r.pos]
	r.window[r.pos] = b
	if r.pos++; r.pos == WindowSize {
		r.pos = 0
	}
	// Remove the outgoing byte's contribution, then append the new byte:
	// value = ((value ^ out*x^(8W)) * x^8 + b) mod poly.
	r.value ^= r.outTable[out]
	top := byte(r.value >> (r.shift - 8))
	r.value = ((r.value << 8) | uint64(b)) & ((1 << r.shift) - 1)
	r.value ^= r.modTable[top]
	return r.value
}

// Sum returns the current fingerprint value.
func (r *Rabin) Sum() uint64 { return r.value }

// Fingerprint computes, in one shot with the default polynomial, the
// windowed Rabin fingerprint Roll ends on: it covers only the last
// WindowSize bytes of data, so it is not a whole-content hash (ROADMAP
// item 3; HashBytes is).
func Fingerprint(data []byte) uint64 {
	r := NewRabin(0)
	for _, b := range data {
		r.Roll(b)
	}
	return r.Sum()
}
