package fingerprint

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// rabin is the reference rolling fingerprint: a sliding window of the
// last windowSize bytes rolled, kept in a ring buffer, the form LBFS
// rolls. Its zero value is an empty window.
type rabin struct {
	window [windowSize]byte
	pos    int
	value  uint64
}

// roll slides the window forward by one byte and returns the updated
// fingerprint.
func (r *rabin) roll(b byte) uint64 {
	out := r.window[r.pos]
	r.window[r.pos] = b
	if r.pos++; r.pos == windowSize {
		r.pos = 0
	}
	r.value = roll(r.value, out, b)
	return r.value >> align
}

// rollAll is the fingerprint a fresh window holds after rolling data.
func rollAll(data []byte) uint64 {
	var r rabin
	var v uint64
	for _, b := range data {
		v = r.roll(b)
	}
	return v
}

func TestRabinDeterministic(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly and deterministically")
	a := rollAll(data)
	b := rollAll(data)
	if a != b {
		t.Fatalf("fingerprint not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("fingerprint of non-empty data is zero")
	}
}

func TestRabinDistinguishes(t *testing.T) {
	a := rollAll([]byte("configuration value = 1"))
	b := rollAll([]byte("configuration value = 2"))
	if a == b {
		t.Fatal("single-byte change did not alter fingerprint")
	}
}

func TestRabinWindowed(t *testing.T) {
	// Once the window has fully slid past a prefix, the fingerprint must
	// depend only on the last windowSize bytes.
	suffix := make([]byte, windowSize)
	for i := range suffix {
		suffix[i] = byte(i * 7)
	}
	a := rollAll(append([]byte("prefix-one-that-is-long-enough-to-matter"), suffix...))
	b := rollAll(append([]byte("a totally different and longer prefix, twice as long as the other"), suffix...))
	if a != b {
		t.Fatalf("windowed fingerprint depends on bytes outside the window: %x vs %x", a, b)
	}
}

// TestRabinReset: the zero value is an empty window, so assigning it
// forgets everything rolled before — each chunk's search starts from it.
func TestRabinReset(t *testing.T) {
	var r rabin
	for _, b := range []byte("some data") {
		r.roll(b)
	}
	r = rabin{}
	if r.value != 0 {
		t.Fatalf("value after reset = %x, want 0", r.value)
	}
	var v uint64
	for _, b := range []byte("next") {
		v = r.roll(b)
	}
	if want := windowedHorner([]byte("next")); v != want {
		t.Fatalf("after reset: %x, want %x", v, want)
	}
}

// degree returns the degree of the polynomial represented by p, counting
// the implicit leading term.
func degree(p uint64) uint {
	d := uint(0)
	for i := uint(0); i < 64; i++ {
		if p&(1<<i) != 0 {
			d = i
		}
	}
	return d
}

func TestDegree(t *testing.T) {
	if d := degree(poly); d != polyDegree {
		t.Fatalf("degree(poly) = %d, want polyDegree %d", d, polyDegree)
	}
	if d := degree(0x11B); d != 8 {
		t.Fatalf("degree(0x11B) = %d, want 8", d)
	}
}

// TestChunkerCoversInput: the chunks tile the input in order, within the
// size bounds.
func TestChunkerCoversInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 100_000)
	rng.Read(data)
	chunks := Split(data)
	if len(chunks) < 2 {
		t.Fatalf("chunks = %d, want several", len(chunks))
	}
	off := 0
	for i, ch := range chunks {
		if ch.Offset != off {
			t.Fatalf("chunk %d offset = %d, want %d", i, ch.Offset, off)
		}
		if ch.Length <= 0 {
			t.Fatalf("chunk %d has non-positive length %d", i, ch.Length)
		}
		if ch.Length > maxSize {
			t.Fatalf("chunk %d length %d exceeds max %d", i, ch.Length, maxSize)
		}
		off += ch.Length
	}
	if off != len(data) {
		t.Fatalf("chunks cover %d bytes, want %d", off, len(data))
	}
}

// TestSplitAddressedCoversDataWithStrongAddresses: each chunk is known by
// the HashBytes digest of its bytes — the content address the distribution
// layer stores it under — and the chunks still tile the input.
func TestSplitAddressedCoversDataWithStrongAddresses(t *testing.T) {
	data := make([]byte, 100_000)
	x := uint32(7)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 16)
	}
	chunks := Split(data)
	if len(chunks) < 2 {
		t.Fatalf("chunks = %d, want several", len(chunks))
	}
	offset := 0
	for i, ch := range chunks {
		if ch.Offset != offset {
			t.Fatalf("chunk %d offset = %d, want %d", i, ch.Offset, offset)
		}
		if want := HashBytes(data[ch.Offset : ch.Offset+ch.Length]); ch.Hash != want {
			t.Fatalf("chunk %d hash = %x, want HashBytes %x", i, ch.Hash, want)
		}
		offset += ch.Length
	}
	if offset != len(data) {
		t.Fatalf("chunks cover %d of %d bytes", offset, len(data))
	}
}

func TestChunkerAverageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 1_000_000)
	rng.Read(data)
	chunks := Split(data)
	avg := len(data) / len(chunks)
	// With min/max clamping the realised average sits near the target.
	if avg < avgSize/2 || avg > avgSize*2 {
		t.Fatalf("average chunk size %d too far from target %d", avg, avgSize)
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

	before := Split(data)
	after := Split(edited)

	count := func(chunks []Chunk) map[uint64]int {
		m := make(map[uint64]int, len(chunks))
		for _, ch := range chunks {
			m[ch.Hash]++
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
	if got := Split(nil); len(got) != 0 {
		t.Fatalf("Split(nil) = %d chunks, want 0", len(got))
	}
	one := Split([]byte{1})
	if len(one) != 1 || one[0].Length != 1 {
		t.Fatalf("Split of 1 byte = %+v, want single 1-byte chunk", one)
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
	f := func(data []byte) bool {
		a := Split(data)
		b := Split(data)
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

func TestIdenticalContentSameChunks(t *testing.T) {
	data := bytes.Repeat([]byte("mirage "), 4000)
	a, b := Split(data), Split(data)
	if len(a) < 2 {
		t.Fatalf("chunks = %d, want several", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

// Property: equal Chunk.Hash implies equal bytes. Inputs share a long
// random tail behind different prefixes, so chunks that end alike but
// begin differently are common, and so are identical chunks.
func TestEqualChunkHashEqualBytes(t *testing.T) {
	tail := make([]byte, 3*maxSize)
	rand.New(rand.NewSource(5)).Read(tail)
	seen := map[uint64][]byte{}
	f := func(prefix []byte) bool {
		data := append(prefix, tail...)
		for _, ch := range Split(data) {
			b := data[ch.Offset : ch.Offset+ch.Length]
			if prev, ok := seen[ch.Hash]; ok && !bytes.Equal(prev, b) {
				return false
			}
			seen[ch.Hash] = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the rolling fingerprint of data equals the one-shot
// evaluation of its last windowSize bytes.
func TestRollingMatchesOneShot(t *testing.T) {
	f := func(data []byte) bool { return rollAll(data) == windowedHorner(data) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// windowedHorner is the fingerprint roll should hold after rolling data
// from an empty window, evaluated directly: the last windowSize bytes as a
// polynomial over GF(2), by Horner's rule, modulo poly.
func windowedHorner(data []byte) uint64 {
	if len(data) > windowSize {
		data = data[len(data)-windowSize:]
	}
	var v uint64
	for _, b := range data {
		v = polyMulMod(v, 1<<8) ^ uint64(b)
	}
	return v
}

// splitTwoPass is the reference chunking: one Rabin pass finds the cuts —
// checking at each that the rolling value is the directly evaluated
// windowed fingerprint — then HashBytes digests each chunk's bytes.
func splitTwoPass(t *testing.T, data []byte) []Chunk {
	t.Helper()
	var out []Chunk
	var r rabin
	start := 0
	cut := func(end int) {
		out = append(out, Chunk{Offset: start, Length: end - start})
		start = end
		r = rabin{}
	}
	const mask = avgSize - 1
	for i, b := range data {
		fp := r.roll(b)
		size := i - start + 1
		if size >= minSize && fp&mask == boundaryMagic&mask || size >= maxSize {
			if want := windowedHorner(data[start : i+1]); fp != want {
				t.Fatalf("rolling fingerprint at the cut after byte %d = %x, direct evaluation %x", i, fp, want)
			}
			cut(i + 1)
		}
	}
	if start < len(data) {
		cut(len(data))
	}
	for i := range out {
		out[i].Hash = HashBytes(data[out[i].Offset : out[i].Offset+out[i].Length])
	}
	return out
}

// TestSplitMatchesTwoPassReference: Split rolls only the bytes that can
// decide a cut and hashes as it cuts; it must agree with a reference that
// rolls every byte, cuts, then hashes each chunk, on a cut exactly minSize
// in (the first whose window Split fills just in time), on
// random lengths up to three maximum chunks, on tails shorter than the
// Rabin window, and on zero runs that only max-size cuts can end.
func TestSplitMatchesTwoPassReference(t *testing.T) {
	check := func(what string, data []byte) []Chunk {
		t.Helper()
		got, want := Split(data), splitTwoPass(t, data)
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
		data := make([]byte, rng.Intn(3*maxSize+1))
		rng.Read(data)
		check("random", data)
	}

	for {
		data := make([]byte, 2*minSize)
		rng.Read(data)
		if windowedHorner(data[:minSize])&(avgSize-1) == boundaryMagic {
			if chunks := check("cut at minSize", data); chunks[0].Length != minSize {
				t.Fatalf("first chunk is %d bytes, want %d", chunks[0].Length, minSize)
			}
			break
		}
	}

	base := make([]byte, 4*maxSize)
	rng.Read(base)
	first := Split(base)[0]
	end := first.Offset + first.Length
	for tail := 1; tail < windowSize; tail++ {
		chunks := check("short tail", base[:end+tail])
		if last := chunks[len(chunks)-1]; last.Length != tail {
			t.Fatalf("tail chunk is %d bytes, want %d", last.Length, tail)
		}
	}

	zeros := make([]byte, 3*maxSize+100)
	mixed := append(append(append([]byte(nil), base[:5000]...), zeros...), base[5000:9000]...)
	for what, data := range map[string][]byte{"zero run": zeros, "zero run inside random": mixed} {
		maxCuts := 0
		for _, ch := range check(what, data) {
			if ch.Length == maxSize {
				maxCuts++
			}
		}
		if maxCuts < 2 {
			t.Fatalf("%s: %d max-size cuts, want the zero run to force several", what, maxCuts)
		}
	}
}

// splitMatchesReference fails t unless Split(data) equals the two-pass
// reference chunking, and returns the chunks.
func splitMatchesReference(t *testing.T, what string, data []byte) []Chunk {
	t.Helper()
	got, want := Split(data), splitTwoPass(t, data)
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

// denseCandidates returns n bytes of one two-byte pattern repeated, whose
// window matches boundaryMagic at every other byte at least: the most
// candidates an input can give the scan. It searches all 65,536 patterns.
func denseCandidates(tb testing.TB, n int) []byte {
	tb.Helper()
	for p := range 1 << 16 {
		pair := []byte{byte(p >> 8), byte(p)}
		if windowedHorner(bytes.Repeat(pair, windowSize/2))&(avgSize-1) == boundaryMagic {
			return bytes.Repeat(pair, n/2+1)[:n]
		}
	}
	tb.Fatal("no two-byte pattern repeats into a window that matches boundaryMagic")
	return nil
}

// TestSplitDenseCandidates: where every other window matches, each chunk
// ends as soon as minSize allows, and Split still agrees with the
// reference across full scan blocks and the short one after them.
func TestSplitDenseCandidates(t *testing.T) {
	chunks := splitMatchesReference(t, "dense candidates", denseCandidates(t, 3*blockSize+1000))
	for i, ch := range chunks[:len(chunks)-1] {
		if ch.Length > minSize+1 {
			t.Fatalf("chunk %d is %d bytes, want at most %d", i, ch.Length, minSize+1)
		}
	}
}

// TestSplitAllocs pins Split's one allocation, the chunk list sized for
// the most chunks the input can hold: dense candidates allocate no more
// than random bytes of the same length.
func TestSplitAllocs(t *testing.T) {
	random := make([]byte, 3*blockSize+1000)
	rand.New(rand.NewSource(9)).Read(random)
	dense := denseCandidates(t, len(random))
	r := testing.AllocsPerRun(20, func() { Split(random) })
	d := testing.AllocsPerRun(20, func() { Split(dense) })
	if d > r {
		t.Fatalf("Split allocates %v times on dense candidates, %v on random input", d, r)
	}
	if r != 1 {
		t.Fatalf("Split allocates %v times, want 1", r)
	}
}

// FuzzSplit: Split agrees with the two-pass reference on any bytes.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("shorter than minSize"))
	f.Add(make([]byte, 2*maxSize+100))
	f.Add(denseCandidates(f, blockSize+minSize+100))
	f.Fuzz(func(t *testing.T, data []byte) {
		splitMatchesReference(t, "fuzzed", data)
	})
}
