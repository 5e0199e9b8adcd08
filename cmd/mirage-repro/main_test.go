package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden with this run's output")

// TestEveryExperimentPasses runs every experiment and holds the output to
// testdata/all.golden byte for byte, so a changed figure fails even where
// every check still passes. Run with -update to accept a changed figure.
func TestEveryExperimentPasses(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	failures, err := run("all")
	os.Stdout = stdout
	if err != nil || failures != 0 {
		t.Errorf("%d failed check(s), err %v", failures, err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := run("bogus"); err == nil {
		t.Fatal(`run("bogus") ran nothing and reported no error`)
	}
}
