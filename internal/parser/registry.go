package parser

import (
	"fmt"
	"path"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/resource"
)

// Registry maps environmental resources to parsers. Mirage supplies parsers
// for common types (executables, shared libraries); the vendor registers
// application-specific parsers for paths it understands (configuration
// files, preference stores). Resources matched by neither fall back to
// content-based Rabin fingerprinting.
type Registry struct {
	byType map[machine.FileType]Parser
	byPath map[string]Parser // exact path -> parser
	byGlob []globRule        // pattern (path.Match) -> parser, in registration order
}

type globRule struct {
	pattern string
	parser  Parser
}

// NewRegistry returns an empty registry with no parsers at all (pure
// content fingerprinting). Most callers want MirageRegistry.
func NewRegistry() *Registry {
	return &Registry{
		byType: make(map[machine.FileType]Parser),
		byPath: make(map[string]Parser),
	}
}

// MirageRegistry returns the registry of Mirage-supplied parsers: as in the
// paper, these "deal with executables, shared libraries, and system-wide
// configuration files" — but not with application-specific configuration,
// which needs vendor parsers (this is exactly the gap Figures 7 and 9
// evaluate).
func MirageRegistry() *Registry {
	r, err := BuildRegistry(MirageRegistryConfig())
	if err != nil {
		panic(err)
	}
	return r
}

// RegistryRule is one binding of a parser to resources. Parsers are code
// shipped in both binaries; a registry crosses the wire as its rules: the
// binding of paths/globs/types to parser names plus parser options.
type RegistryRule struct {
	// Match is "path", "glob" or "type".
	Match   string
	Pattern string // for path/glob
	Type    int    // for type matches
	// Parser is "executable", "sharedlib", "text", "config" or "binary".
	Parser     string
	IgnoreKeys []string // config parser option
}

// RegistryConfig is a registry as rules.
type RegistryConfig struct {
	Rules []RegistryRule
}

// MirageRegistryConfig is the rules of the Mirage-supplied registry.
func MirageRegistryConfig() RegistryConfig {
	return RegistryConfig{Rules: []RegistryRule{
		{Match: "type", Type: int(machine.TypeExecutable), Parser: "executable"},
		{Match: "type", Type: int(machine.TypeSharedLib), Parser: "sharedlib"},
		// System-wide configuration lives directly under /etc; application
		// config in /etc subdirectories or home directories is not covered.
		{Match: "glob", Pattern: "/etc/*.conf", Parser: "config"},
	}}
}

// BuildRegistry builds the registry cfg's rules describe.
func BuildRegistry(cfg RegistryConfig) (*Registry, error) {
	reg := NewRegistry()
	for _, rule := range cfg.Rules {
		p, err := parserByName(rule.Parser, rule.IgnoreKeys)
		if err != nil {
			return nil, err
		}
		switch rule.Match {
		case "path":
			reg.RegisterPath(rule.Pattern, p)
		case "glob":
			// Rules arrive over the wire: a bad pattern is an error, not
			// RegisterGlob's panic.
			if _, err := path.Match(rule.Pattern, "/"); err != nil {
				return nil, fmt.Errorf("parser: bad glob pattern %q", rule.Pattern)
			}
			reg.RegisterGlob(rule.Pattern, p)
		case "type":
			reg.RegisterType(machine.FileType(rule.Type), p)
		default:
			return nil, fmt.Errorf("parser: unknown registry match kind %q", rule.Match)
		}
	}
	return reg, nil
}

func parserByName(name string, ignoreKeys []string) (Parser, error) {
	switch name {
	case "executable":
		return ExecutableParser{}, nil
	case "sharedlib":
		return SharedLibParser{}, nil
	case "text":
		return TextParser{}, nil
	case "config":
		return ConfigParser{IgnoreKeys: ignoreKeys}, nil
	case "binary":
		return BinaryParser{}, nil
	default:
		return nil, fmt.Errorf("parser: unknown parser %q", name)
	}
}

// RegisterType installs a parser for every file of the given type.
func (r *Registry) RegisterType(t machine.FileType, p Parser) {
	r.byType[t] = p
}

// RegisterPath installs a vendor parser for one exact path. Exact paths
// take precedence over globs, which take precedence over types.
func (r *Registry) RegisterPath(filePath string, p Parser) {
	r.byPath[filePath] = p
}

// RegisterGlob installs a vendor parser for every path matching pattern
// (path.Match syntax). Earlier registrations win.
func (r *Registry) RegisterGlob(pattern string, p Parser) {
	if _, err := path.Match(pattern, "/probe"); err != nil {
		panic("parser: bad glob pattern " + pattern)
	}
	r.byGlob = append(r.byGlob, globRule{pattern, p})
}

// Lookup returns the parser for f, or nil if the file must be content-
// fingerprinted.
func (r *Registry) Lookup(f *machine.File) Parser {
	if p, ok := r.byPath[f.Path]; ok {
		return p
	}
	for _, rule := range r.byGlob {
		if ok, _ := path.Match(rule.pattern, f.Path); ok {
			return rule.parser
		}
	}
	if p, ok := r.byType[f.Type]; ok {
		return p
	}
	return nil
}

// Clone returns an independent copy of the registry, so a vendor can extend
// the Mirage defaults per application without mutating them.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	for t, p := range r.byType {
		c.byType[t] = p
	}
	for pth, p := range r.byPath {
		c.byPath[pth] = p
	}
	c.byGlob = append([]globRule(nil), r.byGlob...)
	return c
}

// Fingerprinter turns a machine's environmental resources into an item set
// using a registry and the content fallback.
type Fingerprinter struct {
	Registry *Registry
}

// NewFingerprinter returns a Fingerprinter over the given registry.
func NewFingerprinter(reg *Registry) *Fingerprinter {
	return &Fingerprinter{Registry: reg}
}

// Fingerprint produces the item set for the given environmental resource
// references on machine m. References are file paths or "env:NAME"
// environment-variable references. Missing resources contribute no items;
// a resource present at the vendor but absent at a user machine therefore
// surfaces naturally in the item diff.
func (fp *Fingerprinter) Fingerprint(m *machine.Machine, refs []string) *resource.Set {
	set := resource.NewSet(len(refs) * 4)
	for _, ref := range refs {
		if name, ok := cutPrefix(ref, EnvPrefix); ok {
			if val, isSet := m.Getenv(name); isSet {
				set.Add(resource.NewParsed(fingerprint.HashString(val), "env", name))
			}
			continue
		}
		f := m.ReadFile(ref)
		if f == nil {
			continue
		}
		if p := fp.Registry.Lookup(f); p != nil {
			for _, it := range p.Parse(f) {
				set.Add(it)
			}
			continue
		}
		for _, it := range ContentFingerprint(f) {
			set.Add(it)
		}
	}
	return set
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}
