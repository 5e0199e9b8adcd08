package fingerprint

// The benchmark module (bench/) is frozen against the chunker API from
// before Split became the only split. ROADMAP item 1(a) moves it onto
// Split and deletes this file.
type Chunker struct{}

// NewChunker ignores its arguments: the chunking parameters are constants.
func NewChunker(int, int, int) *Chunker { return &Chunker{} }

// SplitAddressed is Split.
func (*Chunker) SplitAddressed(data []byte) []Chunk { return Split(data) }
