// Package wire is the one codec of the bytes Mirage moves between vendor,
// agents and peers: appenders for its primitives and Reader, the bounded
// reader that parses them. distrib's manifest and transport's frame,
// fingerprint request and report image are grammars over
//
//	uvarint  canonical: an overlong encoding is refused
//	varint   zigzag, then uvarint
//	str      uvarint(len) then len bytes (also a byte string)
//	count(x) uvarint(n) then n x's
//	bool     one byte, 0 or 1
//	addr     8 bytes, little-endian (a content address or a signature)
//
// A peer the vendor does not control may have written any byte a Reader
// parses, so a count is checked against the bytes left, at its elements'
// smallest size, and against the cap its caller passes before anything
// is allocated for it. A decoder refuses what no encoder writes and bytes
// left over, so every input it accepts re-encodes to itself.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTrailing is Done's error for bytes left over after an encoding.
var ErrTrailing = errors.New("trailing bytes")

// AppendStr appends a string or byte string.
func AppendStr[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendStrs appends a count of strings.
func AppendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendStr(b, s)
	}
	return b
}

// AppendAddrs appends a count of addresses.
func AppendAddrs(b []byte, addrs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	return b
}

// AppendBool appends a boolean.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// UvarintLen returns the length of v's uvarint encoding.
func UvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// VarintLen returns the length of v's varint encoding.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// StrLen returns the length of an n-byte string's encoding.
func StrLen(n int) int { return UvarintLen(uint64(n)) + n }

// Reader walks one encoding. The first error sticks: every later read
// returns a zero value, and a zero count allocates nothing, so a decoder
// reads its whole grammar and asks Done for the verdict once.
type Reader struct {
	b      []byte
	shared string
	maxStr int
	off    int
	err    error
}

// NewReader returns a Reader over b. Its arguments are where decoders
// differ. shared is b as a string, or "": with it, strings are slices of
// shared, so one decode's strings cost one allocation and keep all of b
// alive; without it, each is copied out of b, which the caller may then
// reuse. maxStr caps every string's length.
func NewReader(b []byte, shared string, maxStr int) Reader {
	return Reader{b: b, shared: shared, maxStr: maxStr}
}

// Fail records err unless the reader has already failed.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf records a violation at the current offset unless the reader has
// already failed.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format+" at byte %d", append(args, r.off)...)
	}
}

// Uvarint reads a canonical uvarint: a minimal encoding's last byte is
// non-zero unless it is the only one.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.Failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Uint reads a uvarint no larger than limit.
func (r *Reader) Uint(limit int) int {
	v := r.Uvarint()
	if v > uint64(limit) {
		r.Failf("value %d over its cap %d", v, limit)
		return 0
	}
	return int(v)
}

// Count reads an element count no larger than limit, nor than the bytes
// left can hold at least bytes per element.
func (r *Reader) Count(least, limit int) int {
	v := r.Uvarint()
	if v > uint64(limit) {
		r.Failf("count %d over its cap %d", v, limit)
		return 0
	}
	if v > uint64((len(r.b)-r.off)/least) {
		r.Failf("count %d exceeds the input", v)
		return 0
	}
	return int(v)
}

func (r *Reader) span(limit int) (int, int) {
	n := r.Count(1, limit)
	r.off += n
	return r.off - n, r.off
}

// Str reads a string.
func (r *Reader) Str() string {
	i, j := r.span(r.maxStr)
	if r.shared != "" {
		return r.shared[i:j]
	}
	return string(r.b[i:j])
}

// List reads the n elements of a list whose count the caller has read
// (Count), each with elem. An empty list reads as nil.
func List[T any](n int, elem func() T) []T {
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

// Strs reads a count of at most limit strings.
func (r *Reader) Strs(limit int) []string { return List(r.Count(1, limit), r.Str) }

// Bytes reads a byte string of at most limit bytes, sharing the input:
// never nil, and capped so its holder's appends cannot write into b.
func (r *Reader) Bytes(limit int) []byte {
	i, j := r.span(limit)
	return r.b[i:j:j]
}

// Octet reads one byte.
func (r *Reader) Octet() byte {
	if r.err != nil {
		return 0
	}
	if r.off == len(r.b) {
		r.Failf("truncated")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	c := r.Octet()
	if c > 1 {
		r.Failf("bool %d", c)
	}
	return c == 1
}

// Varint64 reads a varint.
func (r *Reader) Varint64() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Varint reads a varint that must fit an int.
func (r *Reader) Varint() int {
	v := r.Varint64()
	if int64(int(v)) != v {
		r.Failf("int %d out of range", v)
		return 0
	}
	return int(v)
}

// Addr reads an address.
func (r *Reader) Addr() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.Failf("truncated")
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

// Addrs reads a count of at most limit addresses.
func (r *Reader) Addrs(limit int) []uint64 { return List(r.Count(8, limit), r.Addr) }

// Done returns the reader's verdict on a whole encoding: its first error,
// or one wrapping ErrTrailing for bytes left over.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%d %w at byte %d", len(r.b)-r.off, ErrTrailing, r.off)
	}
	return r.err
}
