package fingerprint

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
func Split(data []byte) []Chunk {
	var chunks []Chunk
	for start := 0; start < len(data); {
		end := start + cut(data[start:])
		chunks = append(chunks, Chunk{Offset: start, Length: end - start, Hash: HashBytes(data[start:end])})
		start = end
	}
	return chunks
}

// cut returns the length of data's first chunk: up to the first byte, at
// least minSize in, where the rolling fingerprint matches boundaryMagic,
// else maxSize bytes, else all of data. The fingerprint at a byte depends
// only on the windowSize bytes ending there, so rolling starts that many
// bytes before the first byte that may end a chunk.
func cut(data []byte) int {
	if len(data) <= minSize {
		return len(data)
	}
	n := min(len(data), maxSize)
	var r rabin
	for i := minSize - windowSize; i < n; i++ {
		if fp := r.roll(data[i]); i >= minSize-1 && fp&(avgSize-1) == boundaryMagic {
			return i + 1
		}
	}
	return n
}
