package fingerprint

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRabinDeterministic(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly and deterministically")
	a := Fingerprint(data)
	b := Fingerprint(data)
	if a != b {
		t.Fatalf("Fingerprint not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("Fingerprint of non-empty data is zero")
	}
}

func TestRabinDistinguishes(t *testing.T) {
	a := Fingerprint([]byte("configuration value = 1"))
	b := Fingerprint([]byte("configuration value = 2"))
	if a == b {
		t.Fatal("single-byte change did not alter fingerprint")
	}
}

func TestRabinWindowed(t *testing.T) {
	// Once the window has fully slid past a prefix, the fingerprint must
	// depend only on the last WindowSize bytes.
	suffix := make([]byte, WindowSize)
	for i := range suffix {
		suffix[i] = byte(i * 7)
	}
	r1 := NewRabin(0)
	for _, b := range append([]byte("prefix-one-that-is-long-enough-to-matter"), suffix...) {
		r1.Roll(b)
	}
	r2 := NewRabin(0)
	for _, b := range append([]byte("a totally different and longer prefix, twice as long as the other"), suffix...) {
		r2.Roll(b)
	}
	if r1.Sum() != r2.Sum() {
		t.Fatalf("windowed fingerprint depends on bytes outside the window: %x vs %x", r1.Sum(), r2.Sum())
	}
}

func TestRabinReset(t *testing.T) {
	r := NewRabin(0)
	for _, b := range []byte("some data") {
		r.Roll(b)
	}
	r.Reset()
	if r.Sum() != 0 {
		t.Fatalf("Sum after Reset = %x, want 0", r.Sum())
	}
}

func TestDegree(t *testing.T) {
	if d := degree(DefaultPoly); d != 53 {
		t.Fatalf("degree(DefaultPoly) = %d, want 53", d)
	}
	if d := degree(0x11B); d != 8 {
		t.Fatalf("degree(0x11B) = %d, want 8", d)
	}
}

func TestChunkerCoversInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 100_000)
	rng.Read(data)
	c := NewChunker(0, 0, 0)
	chunks := c.Split(data)
	off := 0
	for i, ch := range chunks {
		if ch.Offset != off {
			t.Fatalf("chunk %d offset = %d, want %d", i, ch.Offset, off)
		}
		if ch.Length <= 0 {
			t.Fatalf("chunk %d has non-positive length %d", i, ch.Length)
		}
		if ch.Length > DefaultMaxSize {
			t.Fatalf("chunk %d length %d exceeds max %d", i, ch.Length, DefaultMaxSize)
		}
		off += ch.Length
	}
	if off != len(data) {
		t.Fatalf("chunks cover %d bytes, want %d", off, len(data))
	}
}

func TestChunkerAverageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 1_000_000)
	rng.Read(data)
	c := NewChunker(0, 0, 0)
	chunks := c.Split(data)
	avg := len(data) / len(chunks)
	// With min/max clamping the realised average sits near the target.
	if avg < DefaultAvgSize/2 || avg > DefaultAvgSize*2 {
		t.Fatalf("average chunk size %d too far from target %d", avg, DefaultAvgSize)
	}
}

func TestChunkerLocality(t *testing.T) {
	// Content-defined chunking must localise the effect of an edit: chunks
	// far after a changed byte keep their hashes (offsets shift, content
	// does not). We verify that the *multiset* of chunk hashes mostly
	// survives a one-byte insertion near the start.
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 200_000)
	rng.Read(data)
	edited := append([]byte{0xAB}, data...)

	c := NewChunker(0, 0, 0)
	before := c.HashChunks(data)
	after := c.HashChunks(edited)

	count := func(hs []uint64) map[uint64]int {
		m := make(map[uint64]int, len(hs))
		for _, h := range hs {
			m[h]++
		}
		return m
	}
	bm, am := count(before), count(after)
	shared := 0
	for h, n := range bm {
		if an := am[h]; an > 0 {
			if an < n {
				shared += an
			} else {
				shared += n
			}
		}
	}
	if frac := float64(shared) / float64(len(before)); frac < 0.9 {
		t.Fatalf("only %.0f%% of chunks survive a 1-byte insertion; CDC locality broken", frac*100)
	}
}

func TestChunkerSmallInput(t *testing.T) {
	c := NewChunker(0, 0, 0)
	if got := c.Split(nil); len(got) != 0 {
		t.Fatalf("Split(nil) = %d chunks, want 0", len(got))
	}
	one := c.Split([]byte{1})
	if len(one) != 1 || one[0].Length != 1 {
		t.Fatalf("Split of 1 byte = %+v, want single 1-byte chunk", one)
	}
}

func TestChunkerPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ avg, min, max int }{
		{avg: 3000, min: 0, max: 0}, // not a power of two
		{avg: 4096, min: 8192, max: 16384},
		{avg: 4096, min: 512, max: 2048},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewChunker(%d,%d,%d) did not panic", tc.avg, tc.min, tc.max)
				}
			}()
			NewChunker(tc.avg, tc.min, tc.max)
		}()
	}
}

func TestHashBytesStable(t *testing.T) {
	if HashBytes([]byte("x")) != HashBytes([]byte("x")) {
		t.Fatal("HashBytes not stable")
	}
	if HashBytes([]byte("x")) == HashBytes([]byte("y")) {
		t.Fatal("HashBytes collision on trivial inputs")
	}
	if HashString("abc") != HashBytes([]byte("abc")) {
		t.Fatal("HashString disagrees with HashBytes")
	}
}

func TestFormatHashWidth(t *testing.T) {
	if got := FormatHash(0); got != "0000000000000000" {
		t.Fatalf("FormatHash(0) = %q", got)
	}
	if got := FormatHash(0xdeadbeef); len(got) != 16 {
		t.Fatalf("FormatHash length = %d, want 16", len(got))
	}
}

func TestCombineHashesOrderSensitive(t *testing.T) {
	if CombineHashes(1, 2) == CombineHashes(2, 1) {
		t.Fatal("CombineHashes is order-insensitive")
	}
	if CombineHashes() != CombineHashes() {
		t.Fatal("CombineHashes() not stable")
	}
}

// Property: chunking any input covers it exactly, and re-chunking yields
// identical results.
func TestChunkerProperties(t *testing.T) {
	c := NewChunker(0, 0, 0)
	f := func(data []byte) bool {
		a := c.Split(data)
		b := c.Split(data)
		if len(a) != len(b) {
			return false
		}
		total := 0
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			total += a[i].Length
		}
		return total == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the rolling fingerprint of data equals the one-shot fingerprint.
func TestRollingMatchesOneShot(t *testing.T) {
	f := func(data []byte) bool {
		r := NewRabin(0)
		var last uint64
		for _, b := range data {
			last = r.Roll(b)
		}
		return last == Fingerprint(data) || len(data) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// windowedHorner is the fingerprint Roll should hold after rolling data
// from a reset state, evaluated directly: the last WindowSize bytes as a
// polynomial over GF(2), by Horner's rule, modulo DefaultPoly.
func windowedHorner(data []byte) uint64 {
	if len(data) > WindowSize {
		data = data[len(data)-WindowSize:]
	}
	deg := degree(DefaultPoly)
	var v uint64
	for _, b := range data {
		v = polyMulMod(v, 1<<8, DefaultPoly, deg) ^ uint64(b)
	}
	return v
}

// splitTwoPass is the reference chunking: one Rabin pass finds the cuts,
// then a second, independent evaluation hashes each chunk's bytes.
func splitTwoPass(data []byte) []Chunk {
	var out []Chunk
	r := NewRabin(0)
	start := 0
	cut := func(end int) {
		out = append(out, Chunk{Offset: start, Length: end - start, Hash: windowedHorner(data[start:end])})
		start = end
		r.Reset()
	}
	const mask = DefaultAvgSize - 1
	for i, b := range data {
		fp := r.Roll(b)
		size := i - start + 1
		if size >= DefaultMinSize && fp&mask == boundaryMagic&mask || size >= DefaultMaxSize {
			cut(i + 1)
		}
	}
	if start < len(data) {
		cut(len(data))
	}
	return out
}

// TestSplitMatchesTwoPassReference: Split takes each chunk's Hash from its
// boundary pass; that must equal hashing the chunk in a second pass, on
// random lengths up to three maximum chunks, on tails shorter than the
// Rabin window, and on zero runs that only max-size cuts can end.
func TestSplitMatchesTwoPassReference(t *testing.T) {
	c := NewChunker(0, 0, 0)
	check := func(what string, data []byte) []Chunk {
		t.Helper()
		got, want := c.Split(data), splitTwoPass(data)
		if len(got) != len(want) {
			t.Fatalf("%s (%d bytes): %d chunks, reference %d", what, len(data), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (%d bytes): chunk %d = %+v, reference %+v", what, len(data), i, got[i], want[i])
			}
		}
		return got
	}

	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 200; n++ {
		data := make([]byte, rng.Intn(3*DefaultMaxSize+1))
		rng.Read(data)
		check("random", data)
	}

	base := make([]byte, 4*DefaultMaxSize)
	rng.Read(base)
	first := c.Split(base)[0]
	end := first.Offset + first.Length
	for tail := 1; tail < WindowSize; tail++ {
		chunks := check("short tail", base[:end+tail])
		if last := chunks[len(chunks)-1]; last.Length != tail {
			t.Fatalf("tail chunk is %d bytes, want %d", last.Length, tail)
		}
	}

	zeros := make([]byte, 3*DefaultMaxSize+100)
	mixed := append(append(append([]byte(nil), base[:5000]...), zeros...), base[5000:9000]...)
	for what, data := range map[string][]byte{"zero run": zeros, "zero run inside random": mixed} {
		maxCuts := 0
		for _, ch := range check(what, data) {
			if ch.Length == DefaultMaxSize {
				maxCuts++
			}
		}
		if maxCuts < 2 {
			t.Fatalf("%s: %d max-size cuts, want the zero run to force several", what, maxCuts)
		}
	}
}

func TestIdenticalContentSameChunks(t *testing.T) {
	data := bytes.Repeat([]byte("mirage "), 4000)
	c1 := NewChunker(0, 0, 0)
	c2 := NewChunker(0, 0, 0)
	a, b := c1.HashChunks(data), c2.HashChunks(data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d hash differs", i)
		}
	}
}

func TestSplitAddressedCoversDataWithStrongAddresses(t *testing.T) {
	data := make([]byte, 100_000)
	x := uint32(7)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 16)
	}
	c := NewChunker(0, 0, 0)
	chunks := c.SplitAddressed(data)
	if len(chunks) < 2 {
		t.Fatalf("chunks = %d, want several", len(chunks))
	}
	offset := 0
	for i, ch := range chunks {
		if ch.Offset != offset {
			t.Fatalf("chunk %d offset = %d, want %d", i, ch.Offset, offset)
		}
		if want := HashBytes(data[ch.Offset : ch.Offset+ch.Length]); ch.Address != want {
			t.Fatalf("chunk %d address = %x, want HashBytes %x", i, ch.Address, want)
		}
		offset += ch.Length
	}
	if offset != len(data) {
		t.Fatalf("chunks cover %d of %d bytes", offset, len(data))
	}
	// Boundaries and addresses are identical to a plain Split of the same
	// data: the address is an annotation, not a different chunking.
	plain := NewChunker(0, 0, 0).Split(data)
	if len(plain) != len(chunks) {
		t.Fatalf("addressed split has %d chunks, plain %d", len(chunks), len(plain))
	}
	for i := range plain {
		if plain[i] != chunks[i].Chunk {
			t.Fatalf("chunk %d differs between Split and SplitAddressed", i)
		}
	}
}
