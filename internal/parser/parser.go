// Package parser implements Mirage's resource fingerprinting (§3.2.3):
// per-type parsers that turn an environmental resource into a hierarchical
// set of items, a registry through which vendors supply application-
// specific parsers, and the content-based Rabin fallback for resources no
// parser understands.
//
// The item formats follow the paper exactly:
//
//	Executables:      Executablename.FILE_HASH
//	Shared libraries: LibraryName.Version#.HASH
//	Text files:       Filename.Line#.LINE_HASH
//	Config files:     Filename.SectionName.KEY.HASH
//	Binary files:     Filename.CHUNK_HASH
//
// Content-based fingerprinting also produces Filename.CHUNK_HASH items but
// of Kind Content, which routes them into the second (QT) clustering phase
// instead of the exact first phase.
package parser

import (
	"fmt"
	"strings"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/resource"
)

// EnvPrefix marks resource references that name environment variables
// rather than files: "env:HOME" refers to $HOME. Mirage intercepts getenv()
// in libc; the simulated tracer emits the same references.
const EnvPrefix = "env:"

// Parser converts one file into fingerprint items.
type Parser interface {
	// Parse returns the items representing f. Parsers are responsible for
	// choosing item granularity and for discarding irrelevant information
	// (comments, user-specific data).
	Parse(f *machine.File) []resource.Item
}

// ExecutableParser fingerprints program binaries as a single whole-file
// hash: fine granularity is useless for executables.
type ExecutableParser struct{}

func (ExecutableParser) Parse(f *machine.File) []resource.Item {
	return []resource.Item{resource.NewParsed(fingerprint.HashBytes(f.Data), f.Path)}
}

// SharedLibParser fingerprints a shared library as LibraryName.Version.HASH
// so the vendor can discard the hash suffix and keep only the version when
// it deems build differences irrelevant (the libc example in §3.2.3).
type SharedLibParser struct{}

func (SharedLibParser) Parse(f *machine.File) []resource.Item {
	version := f.Version
	if version == "" {
		version = "unversioned"
	}
	return []resource.Item{resource.NewParsed(fingerprint.HashBytes(f.Data), f.Path, version)}
}

// TextParser fingerprints a text file line by line: Filename.Line#.LINE_HASH.
type TextParser struct{}

func (TextParser) Parse(f *machine.File) []resource.Item {
	lines := strings.Split(string(f.Data), "\n")
	items := make([]resource.Item, 0, len(lines))
	for i, line := range lines {
		if line == "" {
			continue
		}
		items = append(items, resource.NewParsed(
			fingerprint.HashString(line), f.Path, fmt.Sprintf("line%d", i+1)))
	}
	return items
}

// ConfigParser fingerprints INI-style configuration files as
// Filename.SectionName.KEY.HASH items. It discards comments and blank
// lines — exactly the semantic filtering that makes parser-aided clustering
// sound where content fingerprinting is not: machines differing only in
// my.cnf comments produce identical item sets.
type ConfigParser struct {
	// IgnoreKeys lists configuration keys whose values are user-specific
	// noise (timestamps, window coordinates, account names) that must not
	// influence clustering. Keys are matched case-insensitively.
	IgnoreKeys []string
}

func (p ConfigParser) ignored(key string) bool {
	for _, k := range p.IgnoreKeys {
		if strings.EqualFold(k, key) {
			return true
		}
	}
	return false
}

func (p ConfigParser) Parse(f *machine.File) []resource.Item {
	section := "global"
	var items []resource.Item
	for _, raw := range strings.Split(string(f.Data), "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";"):
			continue // comments and blanks are irrelevant to behaviour
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			section = strings.TrimSpace(line[1 : len(line)-1])
		default:
			key, value := line, ""
			if i := strings.IndexAny(line, "=:"); i >= 0 {
				key = strings.TrimSpace(line[:i])
				value = strings.TrimSpace(line[i+1:])
			}
			if key == "" || p.ignored(key) {
				continue
			}
			items = append(items, resource.NewParsed(
				fingerprint.HashString(value), f.Path, section, key))
		}
	}
	return items
}

// BinaryParser fingerprints opaque binary resources with content-defined
// chunks, but as Parsed items: the vendor has declared the file a known
// resource type, so its chunks participate in exact phase-1 grouping.
type BinaryParser struct{}

func (BinaryParser) Parse(f *machine.File) []resource.Item {
	chunks := fingerprint.Split(f.Data)
	items := make([]resource.Item, len(chunks))
	for i, ch := range chunks {
		items[i] = resource.NewParsed(ch.Hash, f.Path, fmt.Sprintf("chunk%d", i))
	}
	return items
}

// ContentFingerprint produces the parser-less fallback representation of a
// file: one Content item per content-defined chunk (Filename.CHUNK_HASH),
// hashed over the whole chunk. The chunk index is deliberately absent from
// the key — the paper's content items identify chunks by hash alone, so
// reordering or shifting produces the minimal item difference.
func ContentFingerprint(f *machine.File) []resource.Item {
	chunks := fingerprint.Split(f.Data)
	items := make([]resource.Item, len(chunks))
	for i, ch := range chunks {
		items[i] = resource.NewContent(f.Path, ch.Hash)
	}
	return items
}
