package distrib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/pkgmgr"
)

// A manifest crosses the control channel with every test and integrate
// request, so it has one compact binary wire form instead of JSON. Counts
// and lengths are uvarints, strings are length-prefixed, a chunk is its
// 8-byte little-endian address and a uvarint size:
//
//	manifest  = str(ID) str(Name) str(Version) str(Replaces) bool(Urgent)
//	            count(file) count(dep) count(migration)
//	file      = str(Path) varint(Type) str(Version) count(chunk)
//	chunk     = addr:8 uvarint(Size)
//	dep       = str(Name) str(MinVersion)
//	migration = str(Path) flags [bytes(SetData)] [bytes(Append)]
//
// where count(x) is a uvarint n followed by n x's. The migration flags
// byte holds wireSetData, wireAppend and wireRemove: a present SetData or
// Append, even an empty one, decodes non-nil and an absent one nil,
// because pkgmgr.Apply branches on != nil.
//
// The encoding is canonical. The decoder refuses overlong varints,
// booleans other than 0 and 1, unknown flag bits and trailing bytes, so
// every input it accepts re-encodes to itself.
const (
	wireSetData = 1 << iota
	wireAppend
	wireRemove
)

// Smallest encodings of the repeated elements, by which the decoder
// bounds each count against the bytes that remain.
const (
	minFileBytes      = 4 // empty path, type, empty version, no chunks
	minChunkBytes     = 9 // address, one-byte size
	minDepBytes       = 2
	minMigrationBytes = 2 // empty path, flags
)

// ErrBadManifest reports bytes that are not a manifest's wire form.
var ErrBadManifest = errors.New("distrib: malformed manifest encoding")

// Wire returns the manifest's binary wire form. A store-built or decoded
// manifest returns the bytes it holds, which are shared and must not be
// modified; any other manifest is encoded afresh.
func (m *Manifest) Wire() []byte {
	if m.wire != nil {
		return m.wire
	}
	return m.encode()
}

func (m *Manifest) encode() []byte {
	b := appendLen(nil, m.ID)
	b = appendLen(b, m.Name)
	b = appendLen(b, m.Version)
	b = appendLen(b, m.Replaces)
	urgent := byte(0)
	if m.Urgent {
		urgent = 1
	}
	b = append(b, urgent)
	b = binary.AppendUvarint(b, uint64(len(m.Files)))
	for i := range m.Files {
		f := &m.Files[i]
		b = appendLen(b, f.Path)
		b = binary.AppendVarint(b, int64(f.Type))
		b = appendLen(b, f.Version)
		b = binary.AppendUvarint(b, uint64(len(f.Chunks)))
		for _, ref := range f.Chunks {
			b = binary.LittleEndian.AppendUint64(b, ref.Hash)
			b = binary.AppendUvarint(b, uint64(ref.Size))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Deps)))
	for _, d := range m.Deps {
		b = appendLen(b, d.Name)
		b = appendLen(b, d.MinVersion)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Migrations)))
	for _, ed := range m.Migrations {
		b = appendLen(b, ed.Path)
		var flags byte
		if ed.SetData != nil {
			flags |= wireSetData
		}
		if ed.Append != nil {
			flags |= wireAppend
		}
		if ed.Remove {
			flags |= wireRemove
		}
		b = append(b, flags)
		if ed.SetData != nil {
			b = appendLen(b, ed.SetData)
		}
		if ed.Append != nil {
			b = appendLen(b, ed.Append)
		}
	}
	return b
}

func appendLen[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeManifest parses a manifest's wire form. It does not retain b: the
// manifest keeps a private copy as its Wire bytes. Every count is checked
// against the bytes that remain before anything is allocated for it, so
// the decoder never allocates more than its input implies.
func DecodeManifest(b []byte) (*Manifest, error) {
	wire := append([]byte(nil), b...)
	r := wireReader{b: wire, s: string(wire)}
	m := &Manifest{ID: r.str(), Name: r.str(), Version: r.str(), Replaces: r.str(), Urgent: r.boolean(), wire: wire}
	if n := r.count(minFileBytes); n > 0 {
		m.Files = make([]FileManifest, n)
		for i := range m.Files {
			f := &m.Files[i]
			f.Path, f.Type, f.Version = r.str(), r.varint(), r.str()
			if k := r.count(minChunkBytes); k > 0 {
				f.Chunks = make([]ChunkRef, k)
				for j := range f.Chunks {
					f.Chunks[j] = ChunkRef{Hash: r.addr(), Size: r.size()}
				}
			}
		}
	}
	if n := r.count(minDepBytes); n > 0 {
		m.Deps = make([]pkgmgr.Dependency, n)
		for i := range m.Deps {
			m.Deps[i] = pkgmgr.Dependency{Name: r.str(), MinVersion: r.str()}
		}
	}
	if n := r.count(minMigrationBytes); n > 0 {
		m.Migrations = make([]pkgmgr.FileEdit, n)
		for i := range m.Migrations {
			ed := &m.Migrations[i]
			ed.Path = r.str()
			flags := r.octet()
			if flags&^(wireSetData|wireAppend|wireRemove) != 0 {
				r.fail("migration flags %#x", flags)
			}
			if flags&wireSetData != 0 {
				ed.SetData = r.bytes()
			}
			if flags&wireAppend != 0 {
				ed.Append = r.bytes()
			}
			ed.Remove = flags&wireRemove != 0
		}
	}
	if r.err == nil && r.off != len(wire) {
		r.fail("%d trailing bytes", len(wire)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// wireReader walks one manifest encoding. The first error sticks: every
// later read returns a zero value, and a zero count allocates nothing, so
// DecodeManifest checks r.err once at the end.
type wireReader struct {
	b   []byte
	s   string // b as a string, so decoded strings share one allocation
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", ErrBadManifest, fmt.Sprintf(format, args...), r.off)
	}
}

// uvarint reads one canonical uvarint: a minimal encoding's last byte is
// non-zero unless it is the only one.
func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a length or element count whose elements take at least
// least bytes each, refusing one the remaining input cannot hold.
func (r *wireReader) count(least int) int {
	v := r.uvarint()
	if v > uint64((len(r.b)-r.off)/least) {
		r.fail("count %d exceeds the input", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) span() (int, int) {
	n := r.count(1)
	start := r.off
	r.off += n
	return start, r.off
}

func (r *wireReader) str() string {
	i, j := r.span()
	return r.s[i:j]
}

// bytes returns a present SetData or Append: never nil, and capped so an
// append by its holder cannot write into the manifest's wire bytes.
func (r *wireReader) bytes() []byte {
	i, j := r.span()
	return r.b[i:j:j]
}

func (r *wireReader) octet() byte {
	if r.err != nil {
		return 0
	}
	if r.off == len(r.b) {
		r.fail("truncated")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *wireReader) boolean() bool {
	switch c := r.octet(); c {
	case 0, 1:
		return c == 1
	default:
		r.fail("bool %d", c)
		return false
	}
}

// varint reads a zigzag varint that must fit an int.
func (r *wireReader) varint() int {
	u := r.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		r.fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

// size reads a chunk size, which must fit an int.
func (r *wireReader) size() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("size %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) addr() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
