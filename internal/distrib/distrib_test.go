package distrib

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// payload returns deterministic pseudo-random data that chunks into many
// content-defined pieces.
func payload(seed byte, n int) []byte {
	data := make([]byte, n)
	x := uint32(seed) + 1
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 16)
	}
	return data
}

func upgrade(id string, files ...*machine.File) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: id,
		Pkg: &pkgmgr.Package{
			Name: "app", Version: "2.0", Files: files,
			Dependencies: []pkgmgr.Dependency{{Name: "libc", MinVersion: "2.4"}},
		},
		Replaces:   "1.0",
		Migrations: []pkgmgr.FileEdit{{Path: "/etc/app.conf", Append: []byte("migrated\n")}},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store := NewStore()
	up := upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(1, 100_000)},
		&machine.File{Path: "/lib/libapp.so", Type: machine.TypeSharedLib, Version: "2", Data: payload(2, 30_000)},
		&machine.File{Path: "/etc/empty", Type: machine.TypeConfig, Data: nil},
	)
	man := store.Manifest(up)
	if man.ID != up.ID || man.Name != "app" || man.Replaces != "1.0" {
		t.Fatalf("manifest metadata = %+v", man)
	}
	if got := man.PayloadBytes(); got != 130_000 {
		t.Fatalf("payload bytes = %d, want 130000", got)
	}
	if store.Manifest(up) != man {
		t.Fatal("manifest not cached per upgrade ID")
	}

	cache := NewCache()
	missing := cache.Missing(man)
	if len(missing) == 0 {
		t.Fatal("cold cache missing nothing")
	}
	chunks, err := store.Chunks(missing)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	if rest := cache.Missing(man); len(rest) != 0 {
		t.Fatalf("still missing %d chunks after full fetch", len(rest))
	}
	back, err := cache.Assemble(man)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != up.ID || back.Pkg.Version != "2.0" || back.Replaces != "1.0" {
		t.Fatalf("assembled = %+v", back)
	}
	if len(back.Pkg.Dependencies) != 1 || len(back.Migrations) != 1 {
		t.Fatal("deps/migrations lost in manifest round-trip")
	}
	if len(back.Pkg.Files) != 3 {
		t.Fatalf("files = %d", len(back.Pkg.Files))
	}
	for i, f := range back.Pkg.Files {
		orig := up.Pkg.Files[i]
		if f.Path != orig.Path || f.Type != orig.Type || f.Version != orig.Version || !bytes.Equal(f.Data, orig.Data) {
			t.Fatalf("file %s did not survive the round-trip", orig.Path)
		}
	}
}

// TestManifestNotStaleUnderReusedID: manifests are cached by content
// signature, so an upgrade whose bytes changed under the same ID (a
// careless Fixer) re-chunks instead of distributing the old content.
func TestManifestNotStaleUnderReusedID(t *testing.T) {
	store := NewStore()
	mk := func(data []byte) *pkgmgr.Upgrade {
		return upgrade("app-2.0",
			&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: data})
	}
	first := store.Manifest(mk(payload(8, 50_000)))
	v2 := payload(9, 50_000)
	second := store.Manifest(mk(v2))
	if second == first {
		t.Fatal("changed content under a reused ID served the stale manifest")
	}
	cache := NewCache()
	chunks, err := store.Chunks(cache.Missing(second))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cache.Assemble(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Pkg.Files[0].Data, v2) {
		t.Fatal("assembled content is not the new version")
	}
	// Identical content still shares the cached manifest.
	if store.Manifest(mk(v2)) != second {
		t.Fatal("identical content re-chunked")
	}
}

func TestCacheRejectsCorruptChunk(t *testing.T) {
	cache := NewCache()
	data := payload(3, 1000)
	addr := fingerprint.HashBytes(data)
	if err := cache.Add(addr, append([]byte("x"), data...)); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if err := cache.Add(addr, data); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleNamesMissingChunk(t *testing.T) {
	store := NewStore()
	man := store.Manifest(upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Data: payload(4, 50_000)}))
	if _, err := NewCache().Assemble(man); err == nil {
		t.Fatal("assembled from empty cache")
	}
}

func TestStoreRejectsUnknownAddress(t *testing.T) {
	if _, err := NewStore().Chunks([]uint64{42}); err == nil {
		t.Fatal("store handed out a chunk it never made")
	}
}

// TestSeededCacheMakesVersionDelta is the CDC property the distribution
// layer exists for: seed the cache with version N, and a manifest for
// version N+1 (a small edit of N) misses only the chunks the edit touched.
func TestSeededCacheMakesVersionDelta(t *testing.T) {
	v1 := payload(5, 256*1024)
	v2 := append([]byte(nil), v1...)
	copy(v2[128*1024:], []byte("this small edit replaces a few bytes in the middle"))

	store := NewStore()
	man := store.Manifest(upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: v2}))

	cache := NewCache()
	m := machine.New("seeded")
	m.WriteFile(&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "1.0", Data: v1})
	cache.SeedMachine(m)

	missing := cache.Missing(man)
	var missBytes int
	for _, f := range man.Files {
		for _, ref := range f.Chunks {
			for _, a := range missing {
				if ref.Hash == a {
					missBytes += ref.Size
				}
			}
		}
	}
	if missBytes == 0 {
		t.Fatal("edit transferred nothing — delta test is vacuous")
	}
	// The edit touches a handful of chunks; the bulk of the 256 KiB file
	// must already be seeded. Allow a generous factor for boundary drift.
	if missBytes > len(v2)/4 {
		t.Fatalf("delta = %d bytes of %d — CDC dedup not working", missBytes, len(v2))
	}

	chunks, err := store.Chunks(missing)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cache.Assemble(man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Pkg.Files[0].Data, v2) {
		t.Fatal("assembled v2 differs from original")
	}
}

func TestConcurrentStoreAndCache(t *testing.T) {
	store := NewStore()
	cache := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			up := upgrade(fmt.Sprintf("app-%d", g),
				&machine.File{Path: fmt.Sprintf("/bin/app%d", g), Type: machine.TypeExecutable, Data: payload(byte(g), 64*1024)})
			man := store.Manifest(up)
			chunks, err := store.Chunks(cache.Missing(man))
			if err != nil {
				t.Error(err)
				return
			}
			for _, ch := range chunks {
				if err := cache.Add(ch.Hash, ch.Data); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := cache.Assemble(man); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheChunksServesWhatItHolds pins the peer-serving primitive: only
// held addresses come back, in request order, and the miss is silent —
// "what I have" is the peer protocol, the requester's fallback handles
// the rest.
func TestCacheChunksServesWhatItHolds(t *testing.T) {
	cache := NewCache()
	a := payload(1, 2000)
	b := payload(2, 2000)
	addrA, addrB := fingerprint.HashBytes(a), fingerprint.HashBytes(b)
	if err := cache.Add(addrA, a); err != nil {
		t.Fatal(err)
	}
	if err := cache.Add(addrB, b); err != nil {
		t.Fatal(err)
	}
	got := cache.Chunks([]uint64{addrB, 999, addrA})
	if len(got) != 2 || got[0].Hash != addrB || got[1].Hash != addrA {
		t.Fatalf("Chunks = %+v, want [B, A] with the unknown address skipped", got)
	}
	if !bytes.Equal(got[0].Data, b) || !bytes.Equal(got[1].Data, a) {
		t.Fatal("served chunk bytes differ from what was added")
	}
	if out := cache.Chunks(nil); len(out) != 0 {
		t.Fatalf("empty request served %d chunks", len(out))
	}
}

// reproduces reports whether man, resolved through a fresh cache against
// store, assembles to exactly up's files.
func reproduces(t *testing.T, store *Store, man *Manifest, up *pkgmgr.Upgrade) bool {
	t.Helper()
	cache := NewCache()
	chunks, err := store.Chunks(cache.Missing(man))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		if err := cache.Add(ch.Hash, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cache.Assemble(man)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != up.ID || len(back.Pkg.Files) != len(up.Pkg.Files) {
		return false
	}
	for i, f := range back.Pkg.Files {
		if f.Path != up.Pkg.Files[i].Path || !bytes.Equal(f.Data, up.Pkg.Files[i].Data) {
			return false
		}
	}
	return true
}

// TestManifestMemoSeesEveryIdentityChange: a repeat call with the same
// upgrade value is answered from the identity memo — same manifest, no
// allocation, no payload read — and every change the memo's contract
// names (a payload slice replaced, a file added, the ID changed), made
// through the very same *Upgrade, is signed afresh and gets the manifest
// of the content it now has.
func TestManifestMemoSeesEveryIdentityChange(t *testing.T) {
	store := NewStore()
	up := upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(21, 60_000)})
	first := store.Manifest(up)
	if store.Manifest(up) != first {
		t.Fatal("repeat call returned a different manifest")
	}
	if allocs := testing.AllocsPerRun(100, func() { store.Manifest(up) }); allocs != 0 {
		t.Fatalf("a memo hit allocates %v times, want 0", allocs)
	}

	prev := first
	step := func(what string, change func()) {
		t.Helper()
		change()
		man := store.Manifest(up)
		if man == prev {
			t.Fatalf("%s: served the previous manifest", what)
		}
		if !reproduces(t, store, man, up) {
			t.Fatalf("%s: manifest does not reproduce the upgrade as it now is", what)
		}
		if store.Manifest(up) != man {
			t.Fatalf("%s: the re-signed upgrade was not memoized", what)
		}
		prev = man
	}
	step("payload slice replaced", func() { up.Pkg.Files[0].Data = payload(22, 60_000) })
	step("file added", func() {
		up.Pkg.Files = append(up.Pkg.Files,
			&machine.File{Path: "/lib/libapp.so", Type: machine.TypeSharedLib, Version: "2", Data: payload(23, 20_000)})
	})
	step("ID changed", func() { up.ID = "app-2.0b" })

	// Content decides, not the memo: a new value with the first content
	// under the first ID gets the first manifest back.
	again := upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(21, 60_000)})
	if store.Manifest(again) != first {
		t.Fatal("identical content under a new value re-chunked")
	}
}

// TestManifestMemoOverflow: more live upgrades than the memo has slots,
// visited round-robin so every visit finds its entry evicted — each call
// must still return the manifest of the upgrade it was handed.
func TestManifestMemoOverflow(t *testing.T) {
	store := NewStore()
	ups := make([]*pkgmgr.Upgrade, memoSlots+3)
	for i := range ups {
		ups[i] = upgrade(fmt.Sprintf("app-2.0-%d", i),
			&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(byte(30+i), 20_000)})
	}
	mans := make([]*Manifest, len(ups))
	for round := 0; round < 3; round++ {
		for i, up := range ups {
			man := store.Manifest(up)
			if round == 0 {
				mans[i] = man
				if !reproduces(t, store, man, up) {
					t.Fatalf("upgrade %d: manifest does not reproduce it", i)
				}
			} else if man != mans[i] {
				t.Fatalf("round %d: upgrade %d got another upgrade's manifest", round, i)
			}
		}
	}
}

// TestManifestConcurrentColdAndHot is the pool-worker picture under the
// race detector: 8 goroutines resolving 2 upgrades, first cold (all of
// them miss at once) and then hot (all of them hit the memo lock-free).
func TestManifestConcurrentColdAndHot(t *testing.T) {
	store := NewStore()
	ups := []*pkgmgr.Upgrade{
		upgrade("app-2.0", &machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(41, 80_000)}),
		upgrade("app-2.1", &machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.1", Data: payload(42, 80_000)}),
	}
	var got [8][2]*Manifest
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for u, up := range ups {
					man := store.Manifest(up)
					if got[g][u] == nil {
						got[g][u] = man
					} else if got[g][u] != man {
						t.Errorf("goroutine %d: upgrade %d changed manifest between calls", g, u)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for u, up := range ups {
		for g := range got {
			if got[g][u] != got[0][u] {
				t.Fatalf("upgrade %d: goroutines disagree on its manifest", u)
			}
		}
		if !reproduces(t, store, got[0][u], up) {
			t.Fatalf("upgrade %d: manifest does not reproduce it", u)
		}
	}
}
