package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestPayloadDeterminism(t *testing.T) {
	a := payload(7, 64*kib, wlRolloutWide, "exe", 3)
	if !bytes.Equal(a, payload(7, 64*kib, wlRolloutWide, "exe", 3)) {
		t.Fatal("same seed and labels must give byte-identical payloads")
	}
	for name, other := range map[string][]byte{
		"seed":       payload(8, 64*kib, wlRolloutWide, "exe", 3),
		"repetition": payload(7, 64*kib, wlRolloutWide, "exe", 4),
		"workload":   payload(7, 64*kib, wlRolloutDeep, "exe", 3),
	} {
		if bytes.Equal(a, other) {
			t.Errorf("a different %s must give a different payload", name)
		}
	}
	if len(payload(1, 1001)) != 1001 {
		t.Error("payload length must be exact for sizes that are not a multiple of 8")
	}
}

func TestEditDeterminism(t *testing.T) {
	base := payload(1, installedBytes, "installed")
	a := edited(base, 1, wlDistribDelta, 1)
	if !bytes.Equal(a, edited(base, 1, wlDistribDelta, 1)) {
		t.Fatal("same seed must give the same edit")
	}
	if bytes.Equal(a, edited(base, 2, wlDistribDelta, 1)) || bytes.Equal(a, edited(base, 1, wlDistribDelta, 2)) {
		t.Error("a different seed or repetition must give a different edit")
	}
	if len(a) != len(base) {
		t.Fatalf("an edit must not change the size: %d -> %d", len(base), len(a))
	}
	first, last := -1, -1
	for i := range a {
		if a[i] != base[i] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last-first >= editLen {
		t.Errorf("edit touches bytes %d..%d, want a window of at most %d", first, last, editLen)
	}
	if !bytes.Equal(base, payload(1, installedBytes, "installed")) {
		t.Error("edited must not modify the version it edits")
	}
}

func TestShuffledClusters(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
	}
	a := shuffledClusters(names, 10, 5)
	if !reflect.DeepEqual(a, shuffledClusters(names, 10, 5)) {
		t.Fatal("same seed must give the same cluster assignment")
	}
	if reflect.DeepEqual(a, shuffledClusters(names, 10, 6)) {
		t.Error("a different seed must give a different assignment")
	}
	seen := map[string]bool{}
	for i, c := range a {
		if c.Distance != i+1 || len(c.Others) != 99 {
			t.Errorf("cluster %d: distance %d, %d others; want %d and 99", i, c.Distance, len(c.Others), i+1)
		}
		for _, m := range append([]string{c.Rep}, c.Others...) {
			if seen[m] {
				t.Fatalf("%s dealt twice", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != len(names) {
		t.Errorf("%d of %d names dealt", len(seen), len(names))
	}
	if names[0] != "aaa" || names[1] != "baa" {
		t.Error("shuffledClusters must not reorder its input")
	}
}

func TestChurnFleet(t *testing.T) {
	fleet, profiles := churnFleet(3, 2000)
	fleet2, profiles2 := churnFleet(3, 2000)
	if !reflect.DeepEqual(fleet, fleet2) || !reflect.DeepEqual(profiles, profiles2) {
		t.Fatal("same seed must give the same fleet")
	}
	if _, other := churnFleet(4, 2000); reflect.DeepEqual(profiles, other) {
		t.Error("a different seed must deal the profiles differently")
	}
	distinct := map[int]int{}
	for _, p := range profiles {
		distinct[p]++
	}
	if len(distinct) != churnGroups*churnBands {
		t.Errorf("%d distinct profiles, want %d", len(distinct), churnGroups*churnBands)
	}
	for p, n := range distinct {
		if n != 4 {
			t.Fatalf("profile %d has %d machines, want 2000/500", p, n)
		}
	}
}

func TestDeltaStreamDeterminism(t *testing.T) {
	_, profiles := churnFleet(9, 2000)
	a := newDeltaGen(9, profiles).take(5000)
	if !reflect.DeepEqual(a, newDeltaGen(9, profiles).take(5000)) {
		t.Fatal("same seed must give the same delta stream")
	}
	if reflect.DeepEqual(a[:50], newDeltaGen(10, profiles).take(50)) {
		t.Error("a different seed must give a different delta stream")
	}
	// A stream taken in two parts is the same stream.
	g := newDeltaGen(9, profiles)
	if !reflect.DeepEqual(a, append(g.take(1234), g.take(5000-1234)...)) {
		t.Error("take must continue the stream, not restart it")
	}

	// The stated mix, and every delta a true diff of what the vendor holds.
	var novel, move, churn int
	held := make([]map[itemSpec]bool, len(profiles))
	for m, p := range profiles {
		held[m] = map[itemSpec]bool{}
		for _, it := range profileItems(p) {
			held[m][it] = true
		}
	}
	for i, d := range a {
		switch {
		case len(d.Added) == 1 && d.Added[0].Parsed:
			novel++
		case len(d.Added) == 1:
			churn++
		default:
			move++
		}
		for _, it := range d.Removed {
			if !held[d.Machine][it] {
				t.Fatalf("delta %d removes %v, which machine %d does not have", i, it, d.Machine)
			}
			delete(held[d.Machine], it)
		}
		changed := len(d.Removed) > 0
		for _, it := range d.Added {
			if !held[d.Machine][it] {
				changed = true
			}
			held[d.Machine][it] = true
		}
		if !changed {
			t.Fatalf("delta %d changes nothing on machine %d", i, d.Machine)
		}
	}
	share := func(n int) float64 { return 100 * float64(n) / float64(len(a)) }
	if s := share(churn); s < 87 || s > 93 {
		t.Errorf("content churn is %.1f%% of the stream, want about 90", s)
	}
	if s := share(move); s < 6 || s > 10 {
		t.Errorf("moves are %.1f%% of the stream, want about 8", s)
	}
	if s := share(novel); s < 1 || s > 3 {
		t.Errorf("novel profiles are %.1f%% of the stream, want about 2", s)
	}
}

// The signatures and wire sizes the stream is prepared with are part of
// the input, so they must be as reproducible as the specs.
func TestPreparedDeltasDeterminism(t *testing.T) {
	prep := func() []preparedDelta {
		fleet, profiles := churnFleet(2, 1000)
		ds, err := newDeltaStream(fleet).prepare(newDeltaGen(2, profiles).take(300))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := prep(), prep()
	for i := range a {
		if a[i].machine != b[i].machine || a[i].sig != b[i].sig || a[i].wireBytes != b[i].wireBytes {
			t.Fatalf("delta %d prepared differently on a second run", i)
		}
		if a[i].wireBytes == 0 {
			t.Fatalf("delta %d has no wire size", i)
		}
	}
}
