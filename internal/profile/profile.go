// Package profile is Mirage's fleet-profiling layer: it owns the pipeline
// from machine fingerprints to clusters of deployment, exactly as
// internal/staging owns the wave schedule. The front half of the paper's
// clustering subsystem (§3.2.3) — collect every machine's diff against the
// vendor reference, cluster the diffs, pick representatives — lives here
// once; internal/transport runs it with one Source per registered agent:
//
//	Source (per machine)  ──Collect──►  []Machine  ──Fingerprints──►
//	cluster.Run  ──Assemble──►  []*deploy.Cluster
//
// Collect fans profile acquisition out on a bounded worker pool — for a
// remote fleet each Profile call is an RPC, so this is what turns fleet
// profiling from O(fleet) round-trip latency into O(fleet/parallelism) —
// while keeping the output order (and therefore the clustering input and
// every downstream ID) fully deterministic.
package profile

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/resource"
)

// Machine is one machine's profiling record: its name, the per-kind diffs
// of its item set against the vendor reference, the canonical installed
// application-set key, and (via Key) a stable content signature of the
// whole profile used to deduplicate identical machines.
type Machine struct {
	Name        string
	ParsedDiff  *resource.Set // parsed items differing from the vendor
	ContentDiff *resource.Set // content items differing from the vendor
	AppSet      string        // canonical installed-application key
}

// Key is the content signature of a profile: two machines with equal keys
// have (up to hash collision) identical parsed diffs, content diffs and
// application sets, and are therefore interchangeable for clustering.
type Key struct {
	Parsed  uint64
	Content uint64
	AppSet  string
}

// Key returns the profile's content signature.
func (m Machine) Key() Key {
	return Key{
		Parsed:  m.ParsedDiff.Signature(),
		Content: m.ContentDiff.Signature(),
		AppSet:  m.AppSet,
	}
}

// Fingerprint converts the profile into the clustering algorithm's input
// record.
func (m Machine) Fingerprint() cluster.MachineFingerprint {
	return cluster.MachineFingerprint{
		Name:        m.Name,
		ParsedDiff:  m.ParsedDiff,
		ContentDiff: m.ContentDiff,
		AppSet:      m.AppSet,
	}
}

// New computes a profile from a machine's full item set, the vendor
// reference set, and the application-set key. The diff-and-split rule is
// cluster.NewMachineFingerprint's, not a copy of it.
func New(name string, own, vendor *resource.Set, appSet string) Machine {
	return FromFingerprint(cluster.NewMachineFingerprint(name, own, vendor, appSet))
}

// FromFingerprint converts a clustering input record into a profile.
func FromFingerprint(fp cluster.MachineFingerprint) Machine {
	return Machine{
		Name:        fp.Name,
		ParsedDiff:  fp.ParsedDiff,
		ContentDiff: fp.ContentDiff,
		AppSet:      fp.AppSet,
	}
}

// Source yields one machine's profile against a vendor reference.
// The transport server's agent handles implement it with a fingerprint
// RPC; tests implement it by fingerprinting in-process.
// Collect may call Profile on different sources concurrently, so
// implementations must not share mutable state across sources. The
// context carries the collection's cancellation; sources doing I/O
// should abort promptly when it is done.
type Source interface {
	// Name identifies the machine the source profiles.
	Name() string
	// Profile computes the machine's diff profile against the vendor
	// reference set for app.
	Profile(ctx context.Context, app string, vendor *resource.Set) (Machine, error)
}

// DefaultParallelism is the worker-pool size Collect uses when the caller
// passes parallelism <= 0.
const DefaultParallelism = 8

// Collect gathers one profile per source. Profile calls run concurrently
// on a pool of min(parallelism, len(sources)) workers (parallelism <= 0
// means DefaultParallelism, 1 means serial), but the returned slice is
// always in source order, so the clustering input — and every cluster ID
// derived from it — is identical at any pool size. A failure stops the
// collection: sources not yet started are skipped (at fleet scale each
// Profile call is an RPC; issuing thousands after the outcome is already
// an error would waste the whole fleet's work), and Collect reports the
// earliest-ordered failure among the sources that ran, naming the source.
// Cancelling ctx stops the collection the same way a source failure does:
// sources not yet started are skipped and Collect returns ctx.Err().
func Collect(ctx context.Context, sources []Source, app string, vendor *resource.Set, parallelism int) ([]Machine, error) {
	if parallelism <= 0 {
		parallelism = DefaultParallelism
	}
	if parallelism > len(sources) {
		parallelism = len(sources)
	}
	out := make([]Machine, len(sources))
	errs := make([]error, len(sources))
	var failed atomic.Bool
	if parallelism <= 1 {
		for i, src := range sources {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if out[i], errs[i] = src.Profile(ctx, app, vendor); errs[i] != nil {
				break
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < parallelism; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if failed.Load() || ctx.Err() != nil {
						continue
					}
					out[i], errs[i] = sources[i].Profile(ctx, app, vendor)
					if errs[i] != nil {
						failed.Store(true)
					}
				}
			}()
		}
		for i := range sources {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("profile: collecting %s from %s: %w", app, sources[i].Name(), err)
		}
	}
	return out, nil
}

// Fingerprints converts collected profiles into clustering inputs,
// preserving order.
func Fingerprints(ms []Machine) []cluster.MachineFingerprint {
	fps := make([]cluster.MachineFingerprint, len(ms))
	for i, m := range ms {
		fps[i] = m.Fingerprint()
	}
	return fps
}

// Distinct counts the distinct profiles among ms — the number of weighted
// candidates the multiplicity-aware clustering phase actually works on.
func Distinct(ms []Machine) int {
	seen := make(map[Key]bool, len(ms))
	for _, m := range ms {
		seen[m.Key()] = true
	}
	return len(seen)
}

// Assemble turns the clustering result into clusters of deployment:
// for each cluster, the first repsPerCluster members in name order become
// representatives (at least one) and the rest Others. node resolves a
// member name to its deploy.Node — a local user machine or a remote agent
// handle; Assemble fails if any clustered machine has no node. Cluster
// member lists arrive from cluster.Run already name-sorted, so assembly is
// a single ordered pass.
func Assemble(clusters []*cluster.Cluster, repsPerCluster int, node func(name string) deploy.Node) ([]*deploy.Cluster, error) {
	if repsPerCluster < 1 {
		repsPerCluster = 1
	}
	out := make([]*deploy.Cluster, 0, len(clusters))
	for _, c := range clusters {
		dc := &deploy.Cluster{
			ID:       deploy.ClusterName(c.ID),
			Distance: c.Distance,
		}
		for i, name := range c.Machines {
			n := node(name)
			if n == nil {
				return nil, fmt.Errorf("profile: clustered machine %q has no deployment node", name)
			}
			if i < repsPerCluster {
				dc.Representatives = append(dc.Representatives, n)
			} else {
				dc.Others = append(dc.Others, n)
			}
		}
		out = append(out, dc)
	}
	return out, nil
}
