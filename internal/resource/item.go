// Package resource defines the item model at the heart of Mirage's
// clustering (paper §3.2.3). A resource's fingerprint is a hierarchical set
// of keys and values ("items"). Parsers emit items such as
// "libc.2.4.<hash>" or "my.cnf.mysqld.port.<hash>"; the content-based
// fallback emits "filename.<chunk-hash>" items. Machines exchange item
// *sets* with the vendor and the clustering algorithm operates on the
// symmetric difference between each machine's set and the vendor's.
package resource

import (
	"sort"
	"strings"

	"repro/internal/fingerprint"
)

// Kind distinguishes how an item was produced. Phase 1 of the clustering
// algorithm (exact grouping) uses only parsed items; phase 2 (diameter
// clustering) uses only content items.
type Kind int

const (
	// Parsed items come from a Mirage-supplied or vendor-supplied parser
	// and carry precise semantic structure.
	Parsed Kind = iota
	// Content items come from Rabin content-defined chunking and are
	// imprecise: one item per chunk, no semantic meaning.
	Content
)

func (k Kind) String() string {
	switch k {
	case Parsed:
		return "parsed"
	case Content:
		return "content"
	default:
		return "unknown"
	}
}

// Item is one element of a resource fingerprint: a hierarchical key
// (dot-separated path components, e.g. "my.cnf.mysqld.port") together with
// a value hash. Items compare by full identity: two machines share an item
// only if both key and hash match.
type Item struct {
	Key  string
	Hash uint64
	Kind Kind
}

// ID returns the canonical string identity of the item, used for set
// membership and for labelling clusters with their differing items.
func (it Item) ID() string {
	return it.Key + "." + fingerprint.FormatHash(it.Hash)
}

// Prefix reports whether the item's key starts with the given hierarchical
// prefix (whole components only: "libc.2" is a prefix of "libc.2.4" but
// not of "libc.24").
func (it Item) Prefix(prefix string) bool {
	if prefix == "" {
		return true
	}
	if !strings.HasPrefix(it.Key, prefix) {
		return false
	}
	return len(it.Key) == len(prefix) || it.Key[len(prefix)] == '.'
}

// NewParsed builds a parsed item from key components and a value hash.
func NewParsed(hash uint64, components ...string) Item {
	return Item{Key: strings.Join(components, "."), Hash: hash, Kind: Parsed}
}

// NewContent builds a content item (one Rabin chunk of a file).
func NewContent(filename string, chunkHash uint64) Item {
	return Item{Key: filename, Hash: chunkHash, Kind: Content}
}

// Set is a collection of items keyed by identity. The zero value is an
// empty set ready to use via the methods below; NewSet pre-sizes it.
type Set struct {
	items map[string]Item
}

// NewSet returns an empty set with capacity for n items.
func NewSet(n int) *Set {
	return &Set{items: make(map[string]Item, n)}
}

// Add inserts an item; re-adding an identical item is a no-op.
func (s *Set) Add(it Item) {
	if s.items == nil {
		s.items = make(map[string]Item)
	}
	s.items[it.ID()] = it
}

// Remove deletes an item by identity; removing an absent item is a no-op.
func (s *Set) Remove(it Item) {
	if s != nil && s.items != nil {
		delete(s.items, it.ID())
	}
}

// AddAll inserts every item of other.
func (s *Set) AddAll(other *Set) {
	for _, it := range other.items {
		s.Add(it)
	}
}

// Contains reports membership by full identity.
func (s *Set) Contains(it Item) bool {
	if s == nil || s.items == nil {
		return false
	}
	_, ok := s.items[it.ID()]
	return ok
}

// Len returns the number of items.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.items)
}

// Items returns the items sorted by identity, for deterministic iteration.
func (s *Set) Items() []Item {
	if s == nil {
		return nil
	}
	out := make([]Item, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Filter returns a new set holding only items for which keep returns true.
func (s *Set) Filter(keep func(Item) bool) *Set {
	out := NewSet(s.Len())
	for _, it := range s.items {
		if keep(it) {
			out.Add(it)
		}
	}
	return out
}

// OfKind returns the subset of items with the given kind.
func (s *Set) OfKind(k Kind) *Set {
	return s.Filter(func(it Item) bool { return it.Kind == k })
}

// WithoutPrefix returns a new set with every item under the hierarchical
// prefix removed. This implements the vendor control described in the
// paper: "the vendor can create bigger clusters by removing those items
// from the set of differing items of each machine", including discarding
// only a suffix of hierarchical items.
func (s *Set) WithoutPrefix(prefix string) *Set {
	return s.Filter(func(it Item) bool { return !it.Prefix(prefix) })
}

// Diff returns the symmetric difference between this set and the vendor
// reference: items present here but not at the vendor, and vice versa.
// This is exactly the list each user machine sends back to the vendor
// after comparing fingerprints (paper §3.2.3, "Resource fingerprinting").
func (s *Set) Diff(vendor *Set) *Set {
	out := NewSet(0)
	for _, it := range s.items {
		if !vendor.Contains(it) {
			out.Add(it)
		}
	}
	if vendor != nil {
		for _, it := range vendor.items {
			if !s.Contains(it) {
				out.Add(it)
			}
		}
	}
	return out
}

// Equal reports whether both sets contain exactly the same items.
func (s *Set) Equal(other *Set) bool {
	if s.Len() != other.Len() {
		return false
	}
	for _, it := range s.items {
		if !other.Contains(it) {
			return false
		}
	}
	return true
}

// Signature returns a single stable hash over the whole set, independent of
// insertion order. Watch-mode agents tag each profile delta with it, so
// the vendor can tell a delta that folded cleanly from a diverged base.
func (s *Set) Signature() uint64 {
	ids := make([]string, 0, s.Len())
	for id := range s.items {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return fingerprint.HashString(strings.Join(ids, "\n"))
}

// ManhattanDistance counts items present in exactly one of the two sets.
// It is the distance metric of the QT diameter clustering phase: "the
// number of different items associated with the resources for which there
// are no parsers".
func ManhattanDistance(a, b *Set) int {
	d := 0
	if a != nil {
		for _, it := range a.items {
			if !b.Contains(it) {
				d++
			}
		}
	}
	if b != nil {
		for _, it := range b.items {
			if !a.Contains(it) {
				d++
			}
		}
	}
	return d
}
