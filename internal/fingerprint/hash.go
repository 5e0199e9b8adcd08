package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// HashBytes returns a stable 64-bit digest of data, used wherever Mirage
// needs a whole-content hash (executable FILE_HASH, library HASH, config
// value HASH, ...). It is the first 8 bytes of SHA-256, rendered compactly.
func HashBytes(data []byte) uint64 {
	sum := sha256.Sum256(data)
	return binary.BigEndian.Uint64(sum[:8])
}

// HashString is HashBytes over the UTF-8 bytes of s.
func HashString(s string) uint64 {
	return HashBytes([]byte(s))
}

// FormatHash renders a 64-bit digest in the fixed-width hexadecimal form
// used inside item keys.
func FormatHash(h uint64) string {
	return fmt.Sprintf("%016x", h)
}

// CombineHashes folds an ordered sequence of hashes into one digest. Order
// matters: CombineHashes(a, b) != CombineHashes(b, a) in general. It is
// used to summarise multi-chunk fingerprints.
func CombineHashes(hashes ...uint64) uint64 {
	buf := make([]byte, 8*len(hashes))
	for i, h := range hashes {
		binary.BigEndian.PutUint64(buf[i*8:], h)
	}
	return HashBytes(buf)
}
