// Package distrib is Mirage's content-addressed distribution layer: the
// machinery that moves upgrade bytes to a fleet without ever shipping the
// same content twice.
//
// The vendor side is a Store. It cuts each upgrade file into
// content-defined chunks with fingerprint.Split (the one LBFS-style split
// the fingerprinting subsystem uses too) and keeps them under their
// content address — the chunk's Hash, the strong HashBytes digest of its
// contents. What travels in an upgrade push is then only a Manifest: the
// upgrade metadata plus, per file, the ordered chunk address list.
// Manifests are a few hundred bytes where the inline payload was the whole
// package.
//
// The agent side is a Cache, keyed by the same addresses. Before
// resolving a manifest the agent seeds the cache by chunking its
// currently installed files, so the chunks an upgrade shares with the
// previous version — usually almost all of them — are already present
// and a version N→N+1 push degenerates to a true CDC delta. Seeding is
// one Split over each file's bytes, at the agent's first contact: after
// that it covers only files that changed, and never a file an
// integration wrote, which is the cache's own Assemble output, every
// chunk of it already held. Only the addresses the cache misses are
// fetched, as raw chunk bytes, and the original files are reassembled
// locally before being handed to the ordinary package-manager path.
//
// Both ends are safe for concurrent use: one store serves every agent
// connection of a vendor, and one cache serves its agent's pushes and its
// peer server at once (agents may share a cache, though no binary does).
package distrib

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// ChunkRef names one chunk of a file: its content address and size.
type ChunkRef struct {
	Hash uint64 `json:"h"`
	Size int    `json:"n"`
}

// FileManifest describes one upgrade file as an ordered chunk list in
// place of inline data.
type FileManifest struct {
	Path    string
	Type    int
	Version string
	Chunks  []ChunkRef
}

// Manifest is the content-addressed form of a pkgmgr.Upgrade: all the
// metadata, none of the bytes. It travels in its binary wire form (Wire,
// DecodeManifest).
type Manifest struct {
	ID         string
	Name       string
	Version    string
	Replaces   string
	Urgent     bool
	Files      []FileManifest
	Deps       []pkgmgr.Dependency
	Migrations []pkgmgr.FileEdit

	// addrs is the distinct address list, which every push of the
	// manifest needs and Store.Manifest derives once; a manifest decoded
	// off the wire derives it on demand.
	addrs []uint64
	// wire is the manifest's encoding, set once by Store.Manifest and
	// never written after: the vendor encodes an upgrade once, not once
	// per push. A decoded manifest keeps none.
	wire []byte
	// digest is Digest's value, set once by whoever builds the manifest
	// (Store.Manifest, DecodeManifest); 0 means not computed.
	digest uint64
}

// Digest returns the HashBytes digest of the manifest's wire form: the
// reference by which a test or integrate request names a manifest the
// agent already holds. A store-built or decoded manifest returns the
// digest it was built with; any other manifest is encoded and hashed
// afresh.
func (m *Manifest) Digest() uint64 {
	if m.digest != 0 {
		return m.digest
	}
	return fingerprint.HashBytes(m.Wire())
}

// ChunkCount returns the number of chunk references across all files
// (duplicates counted once each time they appear).
func (m *Manifest) ChunkCount() int {
	n := 0
	for _, f := range m.Files {
		n += len(f.Chunks)
	}
	return n
}

// Addrs returns the manifest's distinct chunk addresses in order of first
// appearance. The slice is shared by every holder of a store-built
// manifest and must not be modified.
func (m *Manifest) Addrs() []uint64 {
	if m.addrs != nil {
		return m.addrs
	}
	return distinctAddrs(m.Files)
}

func distinctAddrs(files []FileManifest) []uint64 {
	seen := make(map[uint64]bool)
	out := make([]uint64, 0, len(files))
	for _, f := range files {
		for _, ref := range f.Chunks {
			if !seen[ref.Hash] {
				seen[ref.Hash] = true
				out = append(out, ref.Hash)
			}
		}
	}
	return out
}

// Size returns the length of the file the chunk list assembles to.
func (f *FileManifest) Size() int {
	n := 0
	for _, c := range f.Chunks {
		n += c.Size
	}
	return n
}

// Chunk is one addressed chunk with its bytes — the unit a fetch moves.
type Chunk struct {
	Hash uint64 `json:"h"`
	Data []byte `json:"data"`
}

// Store is the vendor-side chunk store: upgrades go in, manifests and
// chunks come out.
type Store struct {
	mu        sync.Mutex
	chunks    map[uint64][]byte
	manifests map[uint64]*Manifest // by upgrade content signature

	// memo answers a repeat Manifest call for the same upgrade value
	// without hashing its payload. Entries are immutable once published
	// and read lock-free, so the pool workers of a rollout — every one of
	// them resolving the same upgrade for each member — neither serialise
	// on mu nor wait out another upgrade's cold chunking. Writers hold mu;
	// memoNext is the slot the next new entry overwrites.
	memo     [memoSlots]atomic.Pointer[memoEntry]
	memoNext int
}

// memoSlots is how many upgrade values the identity memo remembers: the
// versions in flight across a vendor's concurrent rollouts (original,
// fixes, rollback baseline). More than that merely re-sign.
const memoSlots = 8

// memoEntry identifies one upgrade value by what is cheap to compare and
// changes whenever a caller builds or re-points anything: the value and
// its package by address, the ID, and per file the payload slice's base
// and length.
type memoEntry struct {
	up         *pkgmgr.Upgrade
	id         string
	pkg        *pkgmgr.Package
	files      []payloadIdent
	migrations int
	man        *Manifest
}

type payloadIdent struct {
	base *byte
	n    int
}

func identOf(data []byte) payloadIdent {
	if len(data) == 0 {
		return payloadIdent{}
	}
	return payloadIdent{&data[0], len(data)}
}

func (e *memoEntry) matches(up *pkgmgr.Upgrade) bool {
	if e.up != up || e.id != up.ID || e.pkg != up.Pkg ||
		e.migrations != len(up.Migrations) || len(e.files) != len(up.Pkg.Files) {
		return false
	}
	for i, f := range up.Pkg.Files {
		if e.files[i] != identOf(f.Data) {
			return false
		}
	}
	return true
}

// remembered returns the memoized manifest for exactly this upgrade
// value, or nil.
func (s *Store) remembered(up *pkgmgr.Upgrade) *Manifest {
	for i := range s.memo {
		if e := s.memo[i].Load(); e != nil && e.matches(up) {
			return e.man
		}
	}
	return nil
}

// remember publishes up → m, overwriting the oldest slot. Callers hold
// s.mu and have checked that no entry matches up.
func (s *Store) remember(up *pkgmgr.Upgrade, m *Manifest) {
	e := &memoEntry{up: up, id: up.ID, pkg: up.Pkg, migrations: len(up.Migrations), man: m,
		files: make([]payloadIdent, len(up.Pkg.Files))}
	for i, f := range up.Pkg.Files {
		e.files[i] = identOf(f.Data)
	}
	s.memo[s.memoNext].Store(e)
	s.memoNext = (s.memoNext + 1) % memoSlots
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		chunks:    make(map[uint64][]byte),
		manifests: make(map[uint64]*Manifest),
	}
}

// upgradeSignature digests everything a manifest is derived from —
// metadata, migrations, and full file contents. Manifests are cached
// under this signature rather than the upgrade ID, so an upgrade whose
// bytes changed under a reused ID (a careless Fixer, say) re-chunks
// instead of silently distributing the stale content. It reads every
// payload byte — 43 µs for 64 KiB, 350 µs for 528 KiB — which is why
// Store.Manifest pays it once per upgrade value, not once per push.
func upgradeSignature(up *pkgmgr.Upgrade) uint64 {
	hashBool := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	parts := []uint64{
		fingerprint.HashString(up.ID),
		fingerprint.HashString(up.Pkg.Name),
		fingerprint.HashString(up.Pkg.Version),
		fingerprint.HashString(up.Replaces),
		hashBool(up.Urgent),
	}
	for _, d := range up.Pkg.Dependencies {
		parts = append(parts, fingerprint.HashString(d.Name), fingerprint.HashString(d.MinVersion))
	}
	for _, e := range up.Migrations {
		parts = append(parts, fingerprint.HashString(e.Path),
			fingerprint.HashBytes(e.SetData), fingerprint.HashBytes(e.Append), hashBool(e.Remove))
	}
	for _, f := range up.Pkg.Files {
		parts = append(parts, fingerprint.HashString(f.Path), uint64(f.Type),
			fingerprint.HashString(f.Version), fingerprint.HashBytes(f.Data))
	}
	return fingerprint.CombineHashes(parts...)
}

// put records one chunk. Callers hold s.mu.
func (s *Store) put(addr uint64, data []byte) {
	if _, ok := s.chunks[addr]; ok {
		return
	}
	s.chunks[addr] = append([]byte(nil), data...)
}

// Manifest cuts the upgrade's files into addressed chunks, stores every
// chunk, and returns the manifest. Results are cached by content
// signature, so pushing one upgrade to a thousand machines chunks it
// once — and a changed upgrade is never served a stale manifest, even
// under a reused ID.
//
// A thousand pushes do not sign it a thousand times either: a repeat call
// with the same upgrade value is answered from the identity memo, without
// reading file bytes or taking the store's lock. The contract is the one
// a rollout's concurrent pool workers already require — an upgrade handed
// to Manifest is read-only from then on. A new value, a changed ID, a
// re-pointed package, a file added or dropped, a payload slice replaced
// or resized all miss the memo and are signed in full; what the memo
// cannot see is an edit that keeps every one of those identities, namely
// bytes overwritten inside an unchanged Data slice or metadata fields
// edited in place.
func (s *Store) Manifest(up *pkgmgr.Upgrade) *Manifest {
	if m := s.remembered(up); m != nil {
		return m
	}
	sig := upgradeSignature(up)
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[sig]
	if !ok {
		m = s.chunk(up)
		s.manifests[sig] = m
	}
	// Re-checked under mu: of several workers missing at once, one
	// publishes.
	if s.remembered(up) == nil {
		s.remember(up, m)
	}
	return m
}

// chunk builds up's manifest, storing every chunk. Callers hold s.mu.
func (s *Store) chunk(up *pkgmgr.Upgrade) *Manifest {
	m := &Manifest{
		ID: up.ID, Name: up.Pkg.Name, Version: up.Pkg.Version,
		Replaces: up.Replaces, Urgent: up.Urgent,
		Deps:       append([]pkgmgr.Dependency(nil), up.Pkg.Dependencies...),
		Migrations: append([]pkgmgr.FileEdit(nil), up.Migrations...),
	}
	for _, f := range up.Pkg.Files {
		fm := FileManifest{Path: f.Path, Type: int(f.Type), Version: f.Version}
		for _, ch := range fingerprint.Split(f.Data) {
			s.put(ch.Hash, f.Data[ch.Offset:ch.Offset+ch.Length])
			fm.Chunks = append(fm.Chunks, ChunkRef{Hash: ch.Hash, Size: ch.Length})
		}
		m.Files = append(m.Files, fm)
	}
	m.addrs = distinctAddrs(m.Files)
	m.wire = m.encode()
	m.digest = fingerprint.HashBytes(m.wire)
	return m
}

// Chunks returns the stored chunks for the given addresses, in request
// order. An unknown address is an error: the store only hands out content
// it has chunked itself, so a miss means the requester holds a manifest
// this store never produced.
func (s *Store) Chunks(addrs []uint64) ([]Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Chunk, 0, len(addrs))
	for _, a := range addrs {
		data, ok := s.chunks[a]
		if !ok {
			return nil, fmt.Errorf("distrib: no chunk %s in store", fingerprint.FormatHash(a))
		}
		out = append(out, Chunk{Hash: a, Data: data})
	}
	return out, nil
}

// CacheStats summarises one cache's history.
type CacheStats struct {
	Chunks      int   // distinct chunks held
	Bytes       int64 // distinct chunk bytes held
	Hits        int64 // manifest chunk lookups satisfied locally
	Misses      int64 // manifest chunk lookups that had to be fetched
	SeededBytes int64 // installed-file bytes seeding has chunked
}

// Cache is the agent-side chunk cache. It persists across RPCs for the
// lifetime of the agent, which is exactly what makes integrate-after-test
// and staged-wave pushes free: the chunks fetched for the first operation
// satisfy every later one.
type Cache struct {
	mu     sync.Mutex
	chunks map[uint64][]byte
	bytes  int64
	// seededPaths remembers per-machine file identities already seeded or
	// installed from this cache, so re-seeding before every RPC reads no
	// byte of a file that looks unchanged.
	seededPaths        map[seedKey]bool
	hits, miss, seeded int64
}

// seedKey identifies a machine file cheaply — without reading its data.
// A mutation that preserves path, version and size slips past this memo,
// which only costs extra chunk fetches later (seeding is an optimization;
// assembly correctness never depends on it).
type seedKey struct {
	machine, path, version string
	size                   int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		chunks:      make(map[uint64][]byte),
		seededPaths: make(map[seedKey]bool),
	}
}

// SeedFile chunks one file's current contents into the cache, in one
// pass over its bytes. Seeding is what turns a version upgrade into a
// delta: every chunk the new version shares with the installed one is a
// hit before any byte moves.
//
// The split runs without the cache's lock, so the peer server's Chunks
// carries on meanwhile. A chunk the cache lacks is stored as a copy:
// keeping a slice of data would pin the whole installed file for it.
func (c *Cache) SeedFile(data []byte) {
	chunks := fingerprint.Split(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seeded += int64(len(data))
	for _, ch := range chunks {
		if _, ok := c.chunks[ch.Hash]; !ok {
			c.add(ch.Hash, bytes.Clone(data[ch.Offset:ch.Offset+ch.Length]))
		}
	}
}

// Installed records that machine name now holds m's files exactly as
// Assemble built them from this cache, so SeedMachine skips them:
// re-chunking one could only find chunks the cache already holds. Files a
// migration names are left to seeding, as the migration may have
// rewritten them.
func (c *Cache) Installed(name string, m *Manifest) {
	migrated := make(map[string]bool, len(m.Migrations))
	for _, ed := range m.Migrations {
		migrated[ed.Path] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range m.Files {
		f := &m.Files[i]
		if !migrated[f.Path] {
			c.seededPaths[seedKey{machine: name, path: f.Path, version: f.Version, size: f.Size()}] = true
		}
	}
}

// SeedMachine seeds the cache from every file on the machine. It is
// called before each manifest resolution, so it memoizes: a file whose
// (path, version, size) was seeded or Installed before is skipped
// without touching its data. What is left is the machine's files at the
// agent's first contact, and later only files that changed.
func (c *Cache) SeedMachine(m *machine.Machine) {
	for _, f := range m.Files() {
		k := seedKey{machine: m.Name, path: f.Path, version: f.Version, size: len(f.Data)}
		c.mu.Lock()
		done := c.seededPaths[k]
		if !done {
			c.seededPaths[k] = true
		}
		c.mu.Unlock()
		if !done {
			c.SeedFile(f.Data)
		}
	}
}

// add records one chunk, keeping data itself rather than a copy. Callers
// hold c.mu.
func (c *Cache) add(addr uint64, data []byte) {
	if _, ok := c.chunks[addr]; ok {
		return
	}
	c.chunks[addr] = data
	c.bytes += int64(len(data))
}

// Add inserts a fetched chunk after verifying its content address; a
// mismatch means corruption (or a wrong chunk) and is rejected. The cache
// keeps the very slice it verified, without copying it, so the caller
// must not modify data afterwards.
func (c *Cache) Add(addr uint64, data []byte) error {
	if got := fingerprint.HashBytes(data); got != addr {
		return fmt.Errorf("distrib: chunk %s content hashes to %s",
			fingerprint.FormatHash(addr), fingerprint.FormatHash(got))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(addr, data)
	return nil
}

// Missing returns the manifest's chunk addresses not present in the
// cache, deduplicated, in ascending order, and updates the hit/miss
// counters, one per chunk reference. An empty result means Assemble will
// succeed without a fetch. The answer costs no allocation for a manifest
// the cache holds entirely, and one for any other.
func (c *Cache) Missing(m *Manifest) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for _, f := range m.Files {
		for _, ref := range f.Chunks {
			if _, ok := c.chunks[ref.Hash]; ok {
				c.hits++
				continue
			}
			c.miss++
			if out == nil {
				out = make([]uint64, 0, m.ChunkCount())
			}
			out = append(out, ref.Hash)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Chunks returns the cached chunks among addrs, in request order,
// silently skipping addresses the cache does not hold — the serving
// primitive of the peer tier, where "give me what you have" is the
// protocol and the requester falls back to the vendor for the rest.
// The returned Data slices alias the cache's internal storage: stored
// chunks are immutable (add-only map, and no slice is modified once
// added), so they are safe to read concurrently but must never be
// modified.
func (c *Cache) Chunks(addrs []uint64) []Chunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Chunk, 0, len(addrs))
	for _, a := range addrs {
		if data, ok := c.chunks[a]; ok {
			out = append(out, Chunk{Hash: a, Data: data})
		}
	}
	return out
}

// Assemble reconstructs the full upgrade from cached chunks. Every chunk
// the manifest references must be present (fetch the Missing set first);
// an absent chunk is an error naming its address.
func (c *Cache) Assemble(m *Manifest) (*pkgmgr.Upgrade, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pkg := &pkgmgr.Package{
		Name: m.Name, Version: m.Version,
		Dependencies: append([]pkgmgr.Dependency(nil), m.Deps...),
	}
	for _, fm := range m.Files {
		parts := make([][]byte, len(fm.Chunks))
		for i, ref := range fm.Chunks {
			chunk, ok := c.chunks[ref.Hash]
			if !ok {
				return nil, fmt.Errorf("distrib: assembling %s: chunk %s not cached",
					fm.Path, fingerprint.FormatHash(ref.Hash))
			}
			parts[i] = chunk
		}
		// bytes.Join sizes its buffer without zeroing it first: every
		// byte of the file is written exactly once, by the copy.
		pkg.Files = append(pkg.Files, &machine.File{
			Path: fm.Path, Type: machine.FileType(fm.Type), Version: fm.Version, Data: bytes.Join(parts, nil),
		})
	}
	return &pkgmgr.Upgrade{
		ID: m.ID, Pkg: pkg, Replaces: m.Replaces, Urgent: m.Urgent,
		Migrations: append([]pkgmgr.FileEdit(nil), m.Migrations...),
	}, nil
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Chunks: len(c.chunks), Bytes: c.bytes, Hits: c.hits, Misses: c.miss, SeededBytes: c.seeded}
}
