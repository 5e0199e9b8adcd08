package main

import (
	"fmt"
	"hash/fnv"
)

// Everything the program under test is fed comes from here, and all of it
// is a pure function of (seed, labels): the same seed gives byte-identical
// payloads, edits, cluster assignment and delta stream on every run and
// every machine. The generator is its own splitmix64 so the streams do
// not depend on the Go release's math/rand.

type rng struct{ s uint64 }

// newRNG derives an independent stream from the seed and a label path
// ("payload", workload, repetition, …).
func newRNG(seed uint64, labels ...any) *rng {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, l := range labels {
		fmt.Fprint(h, "/", l)
	}
	return &rng{h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) bytes(n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// payload returns n pseudo-random bytes. Varied content matters: CDC over
// repetitive data degenerates into max-size chunks.
func payload(seed uint64, n int, labels ...any) []byte {
	return newRNG(seed, append([]any{"payload"}, labels...)...).bytes(n)
}

// editLen is the size of a release-train edit: "a handful of bytes".
const editLen = 60

// edited returns a copy of prev with editLen seeded bytes overwritten at a
// seeded offset — version r+1 of a binary whose version r the fleet holds.
func edited(prev []byte, seed uint64, labels ...any) []byte {
	r := newRNG(seed, append([]any{"edit"}, labels...)...)
	out := append([]byte(nil), prev...)
	off := r.intn(len(out) - editLen)
	copy(out[off:], r.bytes(editLen))
	return out
}

// shuffledClusters deals names into n equal clusters after a seeded
// shuffle; the first member dealt to a cluster is its representative.
// Cluster i is at distance i+1, so Balanced visits them in index order.
func shuffledClusters(names []string, n int, seed uint64) []clusterSpec {
	r := newRNG(seed, "clusters")
	order := append([]string(nil), names...)
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	per := len(order) / n
	out := make([]clusterSpec, n)
	for i := range out {
		members := order[i*per : (i+1)*per]
		if i == n-1 {
			members = order[i*per:]
		}
		out[i] = clusterSpec{Name: fmt.Sprintf("cluster%d", i), Distance: i + 1,
			Rep: members[0], Others: members[1:]}
	}
	return out
}

// --- fleet-churn --------------------------------------------------------

// The churn fleet is churnGroups parsed groups × churnBands content bands
// = 500 distinct profiles. Bands differ in 12 content items, far outside
// the clustering diameter, so every profile is its own cluster and both
// the from-scratch run and the incremental fold have real work to do.
const (
	churnGroups = 100
	churnBands  = 5
)

// profileItems is base profile p's diff against the vendor.
func profileItems(p int) []itemSpec {
	g, band := p%churnGroups, p/churnGroups
	var items []itemSpec
	for v := 0; v <= g%3; v++ {
		items = append(items, itemSpec{Key: fmt.Sprintf("pkg.lib%d.v%d", g, v), Hash: uint64(g), Parsed: true})
	}
	for c := 0; c < 6; c++ {
		items = append(items, itemSpec{Key: fmt.Sprintf("data%d.bin", band*10+c), Hash: uint64(g*1000 + band)})
	}
	return items
}

// churnFleet is n machines dealt over the base profiles by a seeded
// shuffle.
func churnFleet(seed uint64, n int) ([]machineSpec, []int) {
	r := newRNG(seed, "churn-fleet")
	profiles := make([]int, n)
	for i := range profiles {
		profiles[i] = i % (churnGroups * churnBands)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		profiles[i], profiles[j] = profiles[j], profiles[i]
	}
	fleet := make([]machineSpec, n)
	for i := range fleet {
		fleet[i] = machineSpec{Name: fmt.Sprintf("m%05d", i), AppSet: "app", Items: profileItems(profiles[i])}
	}
	return fleet, profiles
}

// Content churn rewrites churn.bin to one of churnVariants contents.
const (
	churnVariants = 3
	churnHashBase = 1_000_000
)

// Delta kinds and their shares of the stream, in percent.
const (
	shareMove  = 8 // move to another existing cluster
	shareNovel = 2 // a profile no other machine has
	// the remaining 90 % is content churn that stays inside the cluster
)

// deltaGen produces the seeded delta stream. It tracks, per machine, the
// items the vendor last heard of, so each delta is a true diff.
type deltaGen struct {
	r       *rng
	profile []int        // base profile each machine currently has
	extra   [][]itemSpec // items beyond the base profile (churn item, novel item)
	novel   []int        // machines holding a novel profile, oldest first
	serial  uint64
}

func newDeltaGen(seed uint64, profiles []int) *deltaGen {
	return &deltaGen{r: newRNG(seed, "deltas"), profile: append([]int(nil), profiles...),
		extra: make([][]itemSpec, len(profiles))}
}

// next returns the next delta of the stream.
func (g *deltaGen) next() deltaSpec {
	g.serial++
	roll := g.r.intn(100)
	switch {
	case roll < shareNovel:
		// A parsed item nobody else has: the machine leaves for a
		// singleton cluster.
		m := g.r.intn(len(g.profile))
		it := itemSpec{Key: fmt.Sprintf("pkg.novel.n%d", g.serial), Hash: g.serial, Parsed: true}
		g.extra[m] = append(g.extra[m], it)
		g.novel = append(g.novel, m)
		return deltaSpec{Machine: m, Added: []itemSpec{it}}
	case roll < shareNovel+shareMove:
		// Re-image onto another base profile. Every other move takes the
		// longest-standing novel machine, which keeps the number of
		// singleton clusters — and with it the cost of a fold — stationary
		// across repetitions instead of growing with the stream.
		m := g.r.intn(len(g.profile))
		if len(g.novel) > 0 && g.r.intn(2) == 0 {
			m, g.novel = g.novel[0], g.novel[1:]
		}
		target := g.r.intn(churnGroups*churnBands - 1)
		if target >= g.profile[m] {
			target++
		}
		removed := append(profileItems(g.profile[m]), g.extra[m]...)
		g.profile[m], g.extra[m] = target, nil
		g.dropNovel(m)
		return deltaSpec{Machine: m, Added: profileItems(target), Removed: removed}
	default:
		// One content chunk of a file changed, to one of churnVariants
		// contents other machines may hold too (a common file updated by a
		// common package): within the diameter, the machine stays where it
		// is. A bounded variant pool keeps the distinct profiles per cluster
		// — which the from-scratch clustering is cubic in — bounded too.
		m := g.r.intn(len(g.profile))
		d := deltaSpec{Machine: m}
		had := uint64(0)
		kept := g.extra[m][:0]
		for _, old := range g.extra[m] {
			if old.Key == "churn.bin" {
				d.Removed = append(d.Removed, old)
				had = old.Hash
			} else {
				kept = append(kept, old)
			}
		}
		it := itemSpec{Key: "churn.bin", Hash: churnHashBase + uint64(g.r.intn(churnVariants))}
		if it.Hash == had {
			it.Hash = churnHashBase + (it.Hash-churnHashBase+1)%churnVariants
		}
		d.Added = []itemSpec{it}
		g.extra[m] = append(kept, it)
		return d
	}
}

func (g *deltaGen) dropNovel(m int) {
	kept := g.novel[:0]
	for _, x := range g.novel {
		if x != m {
			kept = append(kept, x)
		}
	}
	g.novel = kept
}

func (g *deltaGen) take(n int) []deltaSpec {
	out := make([]deltaSpec, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
