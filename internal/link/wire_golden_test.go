package link

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update", false, "rewrite the golden wire corpus under testdata")

// goldenEntry is one named encoding of a golden wire corpus.
type goldenEntry struct {
	name string
	b    []byte
}

// checkGolden requires got to equal the corpus at path, entry for entry
// and byte for byte, or rewrites the corpus under -update. The file holds
// one "name hex" line per entry.
func checkGolden(t *testing.T, path string, got []goldenEntry) {
	t.Helper()
	var text strings.Builder
	for _, e := range got {
		fmt.Fprintf(&text, "%s %s\n", e.name, hex.EncodeToString(e.b))
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
	if len(lines) != len(got) {
		t.Fatalf("%s holds %d entries, the corpus has %d", path, len(lines), len(got))
	}
	for i, line := range lines {
		name, h, _ := strings.Cut(line, " ")
		want, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
		if name != got[i].name || !bytes.Equal(got[i].b, want) {
			t.Fatalf("%s encodes as\n%x\nwant (%s, %s)\n%x", got[i].name, got[i].b, path, name, want)
		}
	}
}

// TestWireGolden is the byte-level oracle for the frame codec: every frame
// of fuzzFrames and overCapFrames, as it crosses the wire, the image its
// report frame carries, and the frames of byRefFrames, appended last,
// encode to the bytes in testdata/wire.golden (rewrite them with -update). Each frame and image that decodes
// re-encodes to those bytes unchanged, a fingerprint request inside a
// frame too; each over-cap frame is refused as a bad field.
func TestWireGolden(t *testing.T) {
	var corpus []goldenEntry
	frames := fuzzFrames()
	for i, f := range frames {
		corpus = append(corpus, goldenEntry{fmt.Sprintf("frame-%02d", i), wireBytes(t, f)})
	}
	over := overCapFrames()
	for i, f := range over {
		corpus = append(corpus, goldenEntry{fmt.Sprintf("over-cap-%02d", i), wireBytes(t, f)})
	}
	var images int
	for _, f := range frames {
		if f.Report != nil && f.Report.Image != nil {
			corpus = append(corpus, goldenEntry{fmt.Sprintf("image-%02d", images), appendImage(nil, f.Report.Image)})
			images++
		}
	}
	if images == 0 {
		t.Fatal("the corpus holds no image-carrying report frame")
	}
	for i, f := range byRefFrames() {
		corpus = append(corpus, goldenEntry{fmt.Sprintf("frame-%02d", len(frames)+i), wireBytes(t, f)})
	}
	checkGolden(t, "testdata/wire.golden", corpus)

	for _, e := range corpus {
		switch {
		case strings.HasPrefix(e.name, "frame-"):
			f, err := readWire(e.b)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if again := wireBytes(t, &f); !bytes.Equal(again, e.b) {
				t.Fatalf("%s re-encodes as\n%x\nwant\n%x", e.name, again, e.b)
			}
			if len(f.Fingerprint) > 0 {
				req, err := DecodeFingerprintReq(f.Fingerprint)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if again := EncodeFingerprintReq(req); !bytes.Equal(again, f.Fingerprint) {
					t.Fatalf("%s: fingerprint request re-encodes as %x, want %x", e.name, again, f.Fingerprint)
				}
			}
		case strings.HasPrefix(e.name, "over-cap-"):
			f, err := readWire(e.b)
			if err == nil && len(f.Fingerprint) > 0 {
				_, err = DecodeFingerprintReq(f.Fingerprint)
			}
			if refusedFor(err) != RefusedBadField {
				t.Fatalf("%s: %v, want a bad_field refusal", e.name, err)
			}
		case strings.HasPrefix(e.name, "image-"):
			img, err := decodeImage(e.b)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if again := appendImage(nil, img); !bytes.Equal(again, e.b) {
				t.Fatalf("%s re-encodes as\n%x\nwant\n%x", e.name, again, e.b)
			}
		}
	}
}
