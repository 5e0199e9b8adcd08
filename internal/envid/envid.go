// Package envid implements Mirage's identification of environmental
// resources (paper §3.2.3): the four-part heuristic that separates an
// application's environment (libraries, executables, configuration files,
// environment variables) from its data files, combined with the regular
// expression-based vendor rule API that corrects the heuristic's
// misclassifications.
//
// The four heuristic parts:
//
//  1. every file accessed in the longest common prefix of the access
//     sequences of all traces (the single-threaded initialization phase);
//  2. every file opened read-only in all execution traces, provided it is
//     opened in every execution;
//  3. every file of certain vendor-specified types (such as libraries)
//     accessed in any single trace;
//  4. every file named in the package of the application to be upgraded.
//
// Environment variables observed via getenv() are always environmental.
// By default files under /tmp and /var are excluded; vendor rules can
// override any classification in either direction.
package envid

import (
	"regexp"
	"sort"

	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/trace"
)

// Action says whether a rule includes or excludes matched files.
type Action int

const (
	Include Action = iota
	Exclude
)

func (a Action) String() string {
	if a == Include {
		return "include"
	}
	return "exclude"
}

// Rule is one vendor-provided classification directive. A rule matches a
// file if its path matches Pattern (when non-nil) or its type is listed in
// Types. Rules are applied in order after the heuristic and the default
// excludes, so later rules win.
type Rule struct {
	Action  Action
	Pattern *regexp.Regexp
	Types   []machine.FileType
}

// IncludePattern builds an include rule from a path regexp. It panics on an
// invalid expression; rules are vendor-authored constants.
func IncludePattern(expr string) Rule {
	return Rule{Action: Include, Pattern: regexp.MustCompile(expr)}
}

// ExcludePattern builds an exclude rule from a path regexp.
func ExcludePattern(expr string) Rule {
	return Rule{Action: Exclude, Pattern: regexp.MustCompile(expr)}
}

// IncludeTypes builds an include rule matching file types, the form the
// Firefox evaluation needed for extension, theme and font files loaded
// after initialization.
func IncludeTypes(types ...machine.FileType) Rule {
	return Rule{Action: Include, Types: types}
}

func (r Rule) matches(f *machine.File) bool {
	if r.Pattern != nil && r.Pattern.MatchString(f.Path) {
		return true
	}
	for _, t := range r.Types {
		if f.Type == t {
			return true
		}
	}
	return false
}

// DefaultExcludes are the system-wide directories excluded before vendor
// rules run, as in the paper ("By default, we exclude some system-wide
// directories, such as /tmp and /var").
var DefaultExcludes = []*regexp.Regexp{
	regexp.MustCompile(`^/tmp(/|$)`),
	regexp.MustCompile(`^/var(/|$)`),
}

// HeuristicTypes are the file types part (3) of the heuristic treats as
// environmental whenever accessed, even once: libraries are the canonical
// example in the paper.
var HeuristicTypes = []machine.FileType{machine.TypeSharedLib}

// Identifier runs the heuristic plus a vendor rule list.
type Identifier struct {
	// Rules are the vendor directives, applied in order.
	Rules []Rule
	// Types overrides HeuristicTypes when non-nil.
	Types []machine.FileType
}

// Result reports the classification of every file the application touched.
type Result struct {
	// Resources are the identified environmental resource references:
	// sorted file paths followed by env:NAME references.
	Resources []string
	// FilesSeen is every distinct file accessed in the traces, sorted.
	FilesSeen []string
}

// Identify classifies the environmental resources of the application
// pkgName on machine m, given one or more execution traces.
func (id *Identifier) Identify(m *machine.Machine, traces []*trace.Trace, pkgName string) *Result {
	res := &Result{}
	if len(traces) == 0 {
		return res
	}

	env := make(map[string]bool)

	// Part 1: initialization phase = longest common prefix of access
	// sequences across all traces.
	for _, p := range trace.CommonPrefix(traces) {
		env[p] = true
	}

	// Part 2: files opened read-only in all traces, and opened in every
	// execution.
	roInAll := traces[0].ReadOnlyPaths()
	openedInAll := traces[0].AccessedPaths()
	for _, t := range traces[1:] {
		ro := t.ReadOnlyPaths()
		opened := t.AccessedPaths()
		for p := range roInAll {
			if !ro[p] {
				delete(roInAll, p)
			}
		}
		for p := range openedInAll {
			if !opened[p] {
				delete(openedInAll, p)
			}
		}
	}
	for p := range roInAll {
		if openedInAll[p] {
			env[p] = true
		}
	}

	// Part 3: files of designated types accessed in any single trace;
	// these also rescue read-only files not opened in every execution.
	types := id.Types
	if types == nil {
		types = HeuristicTypes
	}
	isEnvType := func(p string) bool {
		f := m.ReadFile(p)
		if f == nil {
			return false
		}
		for _, t := range types {
			if f.Type == t {
				return true
			}
		}
		return false
	}
	seen := make(map[string]bool)
	for _, t := range traces {
		for p := range t.AccessedPaths() {
			seen[p] = true
			if isEnvType(p) {
				env[p] = true
			}
		}
	}

	// Part 4: files named in the application's package.
	for _, p := range m.PackageFiles(pkgName) {
		env[p] = true
	}

	// Default excludes.
	for p := range env {
		for _, re := range DefaultExcludes {
			if re.MatchString(p) {
				delete(env, p)
				break
			}
		}
	}

	// Vendor rules, in order. Includes draw candidates from the files seen
	// in traces plus the package file list; excludes remove.
	candidates := make(map[string]bool, len(seen))
	for p := range seen {
		candidates[p] = true
	}
	for _, p := range m.PackageFiles(pkgName) {
		candidates[p] = true
	}
	for _, rule := range id.Rules {
		for p := range candidates {
			f := m.ReadFile(p)
			if f == nil {
				f = &machine.File{Path: p}
			}
			if !rule.matches(f) {
				continue
			}
			if rule.Action == Include {
				env[p] = true
			} else {
				delete(env, p)
			}
		}
	}

	// Collect results: files sorted, then env vars sorted.
	for p := range env {
		res.Resources = append(res.Resources, p)
	}
	sort.Strings(res.Resources)
	envVars := make(map[string]bool)
	for _, t := range traces {
		for _, name := range t.EnvVars() {
			envVars[name] = true
		}
	}
	var names []string
	for n := range envVars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Resources = append(res.Resources, parser.EnvPrefix+n)
	}

	for p := range seen {
		res.FilesSeen = append(res.FilesSeen, p)
	}
	sort.Strings(res.FilesSeen)
	return res
}

// Evaluation compares a heuristic run against ground truth, producing the
// quantities of Table 1.
type Evaluation struct {
	FilesTotal     int      // files accessed in the traces
	EnvResources   int      // ground-truth environmental resources
	FalsePositives int      // files flagged that are not environmental
	FalseNegatives int      // environmental resources the heuristic missed
	FalsePositive  []string // the misclassified paths, sorted
	FalseNegative  []string
}

// Evaluate compares result (restricted to file resources) against the
// ground-truth set of environmental file paths.
func Evaluate(result *Result, truth map[string]bool) Evaluation {
	ev := Evaluation{FilesTotal: len(result.FilesSeen), EnvResources: len(truth)}
	flagged := make(map[string]bool)
	for _, r := range result.Resources {
		if len(r) >= len(parser.EnvPrefix) && r[:len(parser.EnvPrefix)] == parser.EnvPrefix {
			continue
		}
		flagged[r] = true
		if !truth[r] {
			ev.FalsePositives++
			ev.FalsePositive = append(ev.FalsePositive, r)
		}
	}
	for p := range truth {
		if !flagged[p] {
			ev.FalseNegatives++
			ev.FalseNegative = append(ev.FalseNegative, p)
		}
	}
	sort.Strings(ev.FalsePositive)
	sort.Strings(ev.FalseNegative)
	return ev
}
