package distrib

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
)

var updateWire = flag.Bool("update", false, "rewrite the golden wire corpus under testdata")

// TestWireGolden is the byte-level oracle for the manifest codec: the
// empty manifest, a store-built one and the first 32 manifests
// randomManifest draws from seed 1 encode to the bytes in
// testdata/wire.golden (rewrite them with -update), and each decodes and
// re-encodes to those bytes unchanged. The file holds one "name hex" line
// per manifest.
func TestWireGolden(t *testing.T) {
	const path = "testdata/wire.golden"
	mans := []*Manifest{{}, NewStore().Manifest(upgrade("app-2.0",
		&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Version: "2.0", Data: payload(1, 100_000)},
		&machine.File{Path: "/etc/empty", Type: machine.TypeConfig, Data: nil},
	))}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		mans = append(mans, randomManifest(rng))
	}
	var text strings.Builder
	for i, m := range mans {
		fmt.Fprintf(&text, "manifest-%02d %s\n", i, hex.EncodeToString(m.Wire()))
	}
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != len(mans) {
		t.Fatalf("%s holds %d manifests, the corpus has %d", path, len(lines), len(mans))
	}
	for i, line := range lines {
		name, h, _ := strings.Cut(line, " ")
		want, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
		if got := mans[i].Wire(); name != fmt.Sprintf("manifest-%02d", i) || !bytes.Equal(got, want) {
			t.Fatalf("manifest %d encodes as\n%x\nwant (%s, %s)\n%x", i, got, path, name, want)
		}
		m, err := DecodeManifest(want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := m.encode(); !bytes.Equal(again, want) {
			t.Fatalf("%s re-encodes as\n%x\nwant\n%x", name, again, want)
		}
	}
}
