package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// randomManifest builds a manifest over the codec's whole surface: 0–3
// files of 0–40 chunks, dependencies, and migrations whose SetData and
// Append are each nil, empty or filled. Empty lists are nil, as the
// decoder returns them.
func randomManifest(rng *rand.Rand) *Manifest {
	str := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	data := func() []byte {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []byte{}
		default:
			b := make([]byte, 1+rng.Intn(200))
			rng.Read(b)
			return b
		}
	}
	m := &Manifest{ID: str(), Name: str(), Version: str(), Replaces: str(), Urgent: rng.Intn(2) == 1}
	for i := rng.Intn(4); i > 0; i-- {
		f := FileManifest{Path: str(), Type: rng.Intn(9) - 2, Version: str()}
		for j := rng.Intn(41); j > 0; j-- {
			f.Chunks = append(f.Chunks, ChunkRef{Hash: rng.Uint64(), Size: rng.Intn(1 << 20)})
		}
		m.Files = append(m.Files, f)
	}
	for i := rng.Intn(3); i > 0; i-- {
		m.Deps = append(m.Deps, pkgmgr.Dependency{Name: str(), MinVersion: str()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		m.Migrations = append(m.Migrations, pkgmgr.FileEdit{
			Path: str(), SetData: data(), Append: data(), Remove: rng.Intn(2) == 1})
	}
	return m
}

// sameManifest compares every exported field, nil-versus-empty included.
func sameManifest(a, b *Manifest) bool {
	x, y := *a, *b
	x.addrs, x.wire, x.digest, y.addrs, y.wire, y.digest = nil, nil, 0, nil, nil, 0
	return reflect.DeepEqual(x, y)
}

func TestManifestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mans := []*Manifest{{}}
	for i := 0; i < 500; i++ {
		mans = append(mans, randomManifest(rng))
	}
	store := NewStore()
	mans = append(mans, store.Manifest(upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(1, 100_000)},
		&machine.File{Path: "/etc/empty", Type: machine.TypeConfig, Data: nil},
	)))
	for i, m := range mans {
		enc := m.Wire()
		// Decode from a buffer that is then overwritten, as the link's
		// pooled read buffer is: the manifest must keep none of it.
		buf := bytes.Clone(enc)
		got, err := DecodeManifest(buf)
		if err != nil {
			t.Fatalf("manifest %d: %v", i, err)
		}
		clear(buf)
		if got.Digest() != fingerprint.HashBytes(enc) || got.Digest() != m.Digest() {
			t.Fatalf("manifest %d: decoded digest %x, built %x, want HashBytes of its wire form %x",
				i, got.Digest(), m.Digest(), fingerprint.HashBytes(enc))
		}
		if !sameManifest(got, m) {
			t.Fatalf("manifest %d decoded to\n%+v\nwant\n%+v", i, got, m)
		}
		if !bytes.Equal(got.encode(), enc) || !bytes.Equal(got.Wire(), enc) {
			t.Fatalf("manifest %d: decoded manifest re-encodes differently", i)
		}
	}
}

// TestManifestWireTruncated: no proper prefix of a valid encoding, and no
// encoding with a byte appended, decodes.
func TestManifestWireTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 20; n++ {
		enc := randomManifest(rng).Wire()
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeManifest(enc[:i]); !errors.Is(err, ErrBadManifest) {
				t.Fatalf("%d-byte prefix of a %d-byte encoding: err = %v, want ErrBadManifest", i, len(enc), err)
			}
		}
		if _, err := DecodeManifest(append(enc[:len(enc):len(enc)], 0)); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("trailing byte accepted: err = %v", err)
		}
	}
}

// TestManifestWireHugeCount: a count or length the input cannot hold is
// refused before anything is allocated for it.
func TestManifestWireHugeCount(t *testing.T) {
	const huge = 1 << 50
	header := (&Manifest{ID: "u"}).Wire()
	header = header[:len(header)-3] // up to the file, dep and migration counts
	uv := func(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	cases := map[string][]byte{
		"files":      uv(clone(header), huge),
		"deps":       uv(uv(clone(header), 0), huge),
		"migrations": uv(uv(uv(clone(header), 0), 0), huge),
		"string":     uv(nil, huge),
		"chunks":     uv(append(uv(clone(header), 1), 0, 0, 0), huge),
		"bytes":      append(uv(uv(uv(clone(header), 0), 0), 1), 0, wireSetData, 0xff, 0xff, 0xff, 0xff, 0x0f),
	}
	for name, enc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for i := 0; i < runs; i++ {
			if _, err := DecodeManifest(enc); !errors.Is(err, ErrBadManifest) {
				t.Fatalf("%s: err = %v, want ErrBadManifest", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Fatalf("%s: refusing a %d-byte input allocated %d bytes per decode", name, len(enc), per)
		}
	}
}

func FuzzDecodeManifest(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		f.Add(randomManifest(rng).Wire())
	}
	f.Add((&Manifest{}).Wire())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		if enc := m.encode(); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x but it re-encodes to %x", b, enc)
		}
	})
}
