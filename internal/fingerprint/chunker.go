package fingerprint

import "math/bits"

// Chunking parameters. The paper uses the LBFS defaults: 4 KB average
// chunks, with minimum and maximum bounds to avoid degenerate chunkings on
// pathological inputs (long runs of identical bytes, or inputs where the
// boundary pattern never appears). Every store, cache and fingerprinter
// must cut the same boundaries for chunks to be shared, so they are
// constants.
const (
	// avgSize is the expected chunk size: a boundary is declared when the
	// low log2(avgSize) bits of the rolling fingerprint equal
	// boundaryMagic, which happens once every avgSize bytes on random
	// input.
	avgSize = 4096
	// minSize suppresses boundaries that would create tiny chunks.
	minSize = 512
	// maxSize forces a boundary so no chunk exceeds this size.
	maxSize = 16384
	// boundaryMagic is the value the masked fingerprint must equal at a
	// chunk boundary. Any fixed value below avgSize works.
	boundaryMagic = 0x78
)

// The scan rolls a block as lanes runs of laneSize bytes in one loop:
// four chains overlap one step's table lookups. laneSize is long enough
// that filling a lane's window first costs little, and a constant so that
// the compiler proves every index of the loop in bounds. A block's
// candidates take one bit a byte, on the stack, however many there are.
const (
	lanes     = 4
	laneSize  = 2048
	blockSize = lanes * laneSize
)

// Chunk is one content-defined chunk of a byte stream.
type Chunk struct {
	Offset int // byte offset of the chunk within the input
	Length int // chunk length in bytes
	// Hash is the HashBytes digest of the chunk's contents: the
	// CHUNK_HASH item a fingerprint reports and the address the
	// distribution layer stores the chunk under.
	Hash uint64
}

// Split divides data into content-defined chunks. Every byte of data
// belongs to exactly one chunk, in order. Split is deterministic: the same
// data always produces the same chunks, on every machine.
//
// A chunk ends at its first byte, at least minSize in, where the rolling
// fingerprint matches boundaryMagic, else after maxSize bytes, else at the
// end of data. Split marks the matching bytes of a block (scan), then cuts
// among them.
func Split(data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	// Every chunk but the last is at least minSize long, so this is the
	// only allocation, on any content.
	chunks := make([]Chunk, 0, len(data)/minSize+1)
	start := 0
	emit := func(end int) {
		chunks = append(chunks, Chunk{Offset: start, Length: end - start, Hash: HashBytes(data[start:end])})
		start = end
	}
	var cand [blockSize / 64]uint64
	for from := minSize - 1; from < len(data); from += blockSize {
		n := min(blockSize, len(data)-from)
		scan(data, from, n, &cand)
		for w, word := range cand[:(n+63)/64] {
			for ; word != 0; word &= word - 1 {
				i := from + 64*w + bits.TrailingZeros64(word)
				for i >= start+maxSize {
					emit(start + maxSize)
				}
				if i+1-start >= minSize {
					emit(i + 1)
				}
			}
		}
	}
	for len(data)-start > maxSize {
		emit(start + maxSize)
	}
	if start < len(data) {
		emit(len(data))
	}
	return chunks
}

// scan sets bit j of cand, for each j < n, exactly when the fingerprint of
// the window ending at data[from+j] matches boundaryMagic, and clears the
// other bits of the block. from must be at least windowSize. A lane first
// fills its window from the windowSize bytes before its run; the short
// block at the end of data is rolled in one lane.
func scan(data []byte, from, n int, cand *[blockSize / 64]uint64) {
	clear(cand[:(n+63)/64])
	mark := func(j int) { cand[j>>6] |= 1 << (j & 63) }
	const mask, magic = (avgSize - 1) << align, boundaryMagic << align
	if n < blockSize {
		v := fill(data[from-windowSize : from])
		for j, b := range data[from : from+n] {
			if v = roll(v, data[from+j-windowSize], b); v&mask == magic {
				mark(j)
			}
		}
		return
	}
	d := (*[windowSize + blockSize]byte)(data[from-windowSize:])
	v0 := fill(d[:windowSize])
	v1 := fill(d[laneSize : laneSize+windowSize])
	v2 := fill(d[2*laneSize : 2*laneSize+windowSize])
	v3 := fill(d[3*laneSize : 3*laneSize+windowSize])
	for j := range laneSize {
		v0 = roll(v0, d[j], d[j+windowSize])
		v1 = roll(v1, d[laneSize+j], d[laneSize+j+windowSize])
		v2 = roll(v2, d[2*laneSize+j], d[2*laneSize+j+windowSize])
		v3 = roll(v3, d[3*laneSize+j], d[3*laneSize+j+windowSize])
		if v0&mask == magic {
			mark(j)
		}
		if v1&mask == magic {
			mark(laneSize + j)
		}
		if v2&mask == magic {
			mark(2*laneSize + j)
		}
		if v3&mask == magic {
			mark(3*laneSize + j)
		}
	}
}

// fill returns the aligned fingerprint of a window holding exactly w.
func fill(w []byte) uint64 {
	var v uint64
	for _, b := range w {
		v = roll(v, 0, b)
	}
	return v
}
