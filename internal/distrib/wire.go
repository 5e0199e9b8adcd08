package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/fingerprint"
	"repro/internal/pkgmgr"
	"repro/internal/wire"
)

// A manifest crosses the control channel behind test and integrate
// requests, so it has one compact binary wire form instead of JSON, a
// grammar over package wire's primitives:
//
//	manifest  = str(ID) str(Name) str(Version) str(Replaces) bool(Urgent)
//	            count(file) count(dep) count(migration)
//	file      = str(Path) varint(Type) str(Version) count(chunk)
//	chunk     = addr uvarint(Size)
//	dep       = str(Name) str(MinVersion)
//	migration = str(Path) flags [str(SetData)] [str(Append)]
//
// The migration flags byte holds wireSetData, wireAppend and wireRemove:
// a present SetData or Append, even an empty one, decodes non-nil and an
// absent one nil, because pkgmgr.Apply branches on != nil. The decoder
// refuses unknown flag bits besides what wire.Reader refuses, so every
// input it accepts re-encodes to itself.
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

// Wire returns the manifest's binary wire form. A store-built manifest
// returns the bytes it holds, which are shared and must not be modified;
// any other manifest is encoded afresh.
func (m *Manifest) Wire() []byte {
	if m.wire != nil {
		return m.wire
	}
	return m.encode()
}

func (m *Manifest) encode() []byte {
	b := wire.AppendStr(nil, m.ID)
	b = wire.AppendStr(b, m.Name)
	b = wire.AppendStr(b, m.Version)
	b = wire.AppendStr(b, m.Replaces)
	b = wire.AppendBool(b, m.Urgent)
	b = binary.AppendUvarint(b, uint64(len(m.Files)))
	for i := range m.Files {
		f := &m.Files[i]
		b = wire.AppendStr(b, f.Path)
		b = binary.AppendVarint(b, int64(f.Type))
		b = wire.AppendStr(b, f.Version)
		b = binary.AppendUvarint(b, uint64(len(f.Chunks)))
		for _, ref := range f.Chunks {
			b = binary.LittleEndian.AppendUint64(b, ref.Hash)
			b = binary.AppendUvarint(b, uint64(ref.Size))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Deps)))
	for _, d := range m.Deps {
		b = wire.AppendStr(b, d.Name)
		b = wire.AppendStr(b, d.MinVersion)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Migrations)))
	for _, ed := range m.Migrations {
		b = wire.AppendStr(b, ed.Path)
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
			b = wire.AppendStr(b, ed.SetData)
		}
		if ed.Append != nil {
			b = wire.AppendStr(b, ed.Append)
		}
	}
	return b
}

// DecodeManifest parses a manifest's wire form and digests it (Digest).
// It does not retain b: every decoded string is a slice of one string
// copied from b, and a migration's bytes are copies of their own. A count
// has no cap beyond the bytes that remain, and is checked against them
// before anything is allocated for it, so the decoder never allocates
// more than its input implies.
func DecodeManifest(b []byte) (*Manifest, error) {
	r := wire.NewReader(b, string(b), math.MaxInt)
	m := &Manifest{ID: r.Str(), Name: r.Str(), Version: r.Str(), Replaces: r.Str(), Urgent: r.Bool()}
	m.Files = wire.List(r.Count(minFileBytes, math.MaxInt), func() FileManifest {
		return FileManifest{Path: r.Str(), Type: r.Varint(), Version: r.Str(),
			Chunks: wire.List(r.Count(minChunkBytes, math.MaxInt), func() ChunkRef {
				return ChunkRef{Hash: r.Addr(), Size: r.Uint(math.MaxInt)}
			})}
	})
	m.Deps = wire.List(r.Count(minDepBytes, math.MaxInt), func() pkgmgr.Dependency {
		return pkgmgr.Dependency{Name: r.Str(), MinVersion: r.Str()}
	})
	m.Migrations = wire.List(r.Count(minMigrationBytes, math.MaxInt), func() pkgmgr.FileEdit {
		ed := pkgmgr.FileEdit{Path: r.Str()}
		flags := r.Octet()
		if flags&^(wireSetData|wireAppend|wireRemove) != 0 {
			r.Failf("migration flags %#x", flags)
		}
		if flags&wireSetData != 0 {
			ed.SetData = bytes.Clone(r.Bytes(math.MaxInt))
		}
		if flags&wireAppend != 0 {
			ed.Append = bytes.Clone(r.Bytes(math.MaxInt))
		}
		ed.Remove = flags&wireRemove != 0
		return ed
	})
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadManifest, err)
	}
	m.digest = fingerprint.HashBytes(b)
	return m, nil
}
