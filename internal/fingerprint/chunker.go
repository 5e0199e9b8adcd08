package fingerprint

// Chunking parameters. The paper uses the LBFS defaults: 4 KB average
// chunks, with minimum and maximum bounds to avoid degenerate chunkings on
// pathological inputs (long runs of identical bytes, or inputs where the
// boundary pattern never appears).
const (
	// DefaultAvgSize is the expected chunk size: a boundary is declared
	// when the low log2(DefaultAvgSize) bits of the rolling fingerprint
	// equal the magic value, which happens once every AvgSize bytes on
	// random input.
	DefaultAvgSize = 4096
	// DefaultMinSize suppresses boundaries that would create tiny chunks.
	DefaultMinSize = 512
	// DefaultMaxSize forces a boundary so no chunk exceeds this size.
	DefaultMaxSize = 16384

	// boundaryMagic is the value the masked fingerprint must equal at a
	// chunk boundary. Any fixed value works; LBFS uses mask-1.
	boundaryMagic = 0x78
)

// Chunk is one content-defined chunk of a byte stream.
type Chunk struct {
	Offset int // byte offset of the chunk within the input
	Length int // chunk length in bytes
	// Hash is the windowed Rabin fingerprint at the chunk's cut: it covers
	// only the chunk's last WindowSize bytes, not the whole chunk (a known
	// gap in the CHUNK_HASH items built from it; ROADMAP item 3).
	Hash uint64
}

// Chunker splits byte streams into content-defined chunks. It is safe for
// concurrent use: Split rolls a private copy of the chunker's Rabin.
type Chunker struct {
	avg, min, max int
	mask          uint64
	rabin         *Rabin
}

// NewChunker returns a Chunker with the given average, minimum and maximum
// chunk sizes. avg must be a power of two; zero values select the defaults.
func NewChunker(avg, min, max int) *Chunker {
	if avg == 0 {
		avg = DefaultAvgSize
	}
	if min == 0 {
		min = DefaultMinSize
	}
	if max == 0 {
		max = DefaultMaxSize
	}
	if avg&(avg-1) != 0 {
		panic("fingerprint: average chunk size must be a power of two")
	}
	if min > avg || max < avg {
		panic("fingerprint: chunk size bounds must satisfy min <= avg <= max")
	}
	return &Chunker{
		avg:   avg,
		min:   min,
		max:   max,
		mask:  uint64(avg - 1),
		rabin: NewRabin(0),
	}
}

// Split divides data into content-defined chunks. Every byte of data
// belongs to exactly one chunk, in order. Split is deterministic: the same
// data always produces the same chunks.
func (c *Chunker) Split(data []byte) []Chunk {
	var chunks []Chunk
	r := *c.rabin
	start := 0
	for i, b := range data {
		fp := r.Roll(b)
		size := i - start + 1
		atBoundary := size >= c.min && fp&c.mask == boundaryMagic&c.mask
		if atBoundary || size >= c.max {
			// r was reset at start and has rolled exactly this chunk's
			// bytes, so fp is the chunk's Hash.
			chunks = append(chunks, Chunk{Offset: start, Length: size, Hash: fp})
			start = i + 1
			r.Reset()
		}
	}
	if start < len(data) {
		chunks = append(chunks, Chunk{Offset: start, Length: len(data) - start, Hash: r.Sum()})
	}
	return chunks
}

// AddressedChunk is a content-defined chunk plus its content address: the
// strong HashBytes digest of the chunk contents. The rolling Rabin hash is
// what *finds* boundaries (and what clustering compares); the address is
// what the distribution layer stores and transfers chunks under, where a
// weak-hash collision would silently corrupt a reassembled file.
type AddressedChunk struct {
	Chunk
	Address uint64
}

// SplitAddressed divides data into content-defined chunks and computes
// each chunk's content address. Identical content always produces the same
// (boundary, address) sequence, which is what makes addresses shareable
// across machines and across versions of a file.
func (c *Chunker) SplitAddressed(data []byte) []AddressedChunk {
	chunks := c.Split(data)
	out := make([]AddressedChunk, len(chunks))
	for i, ch := range chunks {
		out[i] = AddressedChunk{Chunk: ch, Address: HashBytes(data[ch.Offset : ch.Offset+ch.Length])}
	}
	return out
}

// HashChunks returns only the chunk hashes of data, in order. This is the
// form Mirage stores as the content-based fingerprint of a resource:
// Filename.CHUNK_HASH items, one per chunk.
func (c *Chunker) HashChunks(data []byte) []uint64 {
	chunks := c.Split(data)
	hashes := make([]uint64, len(chunks))
	for i, ch := range chunks {
		hashes[i] = ch.Hash
	}
	return hashes
}
