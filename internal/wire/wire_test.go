package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestReaderRefuses: each input breaks one rule of the codec, and the
// reader's verdict names it.
func TestReaderRefuses(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"overlong uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"truncated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"count over its cap", []byte{3, 0, 0, 0}, func(r *Reader) { r.Count(1, 2) }, "over its cap"},
		{"count over the input", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2, math.MaxInt) }, "exceeds the input"},
		{"string over its cap", []byte{5, 'a', 'b', 'c', 'd', 'e'}, func(r *Reader) { r.Str() }, "over its cap"},
		{"value over its cap", []byte{9}, func(r *Reader) { r.Uint(8) }, "over its cap"},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, "bool 2"},
		{"truncated addr", []byte{1, 2, 3}, func(r *Reader) { r.Addr() }, "truncated"},
		{"truncated octet", nil, func(r *Reader) { r.Octet() }, "truncated"},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.Octet() }, "1 trailing bytes at byte 1"},
	}
	for _, tc := range cases {
		r := NewReader(tc.in, "", 4)
		tc.read(&r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verdict %v, want %q", tc.name, err, tc.want)
		}
		if errors.Is(err, ErrTrailing) != (tc.name == "trailing") {
			t.Errorf("%s: errors.Is(%v, ErrTrailing) wrong", tc.name, err)
		}
	}
}

// TestReaderFirstErrorSticks: after a violation every read returns its
// zero value and the verdict is the first violation.
func TestReaderFirstErrorSticks(t *testing.T) {
	r := NewReader(append(AppendStr([]byte{0x80, 0x00}, "x"), 1), "", 16)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("overlong uvarint read as %d", v)
	}
	if s, b, ok := r.Str(), r.Octet(), r.Bool(); s != "" || b != 0 || ok {
		t.Fatalf("reads after a violation = %q %d %v, want zero values", s, b, ok)
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "bad varint at byte 0") {
		t.Fatalf("verdict %v, want the first violation", err)
	}
}

// TestReaderStrings: with a shared string the strings read are slices of
// it; without one they are copies, untouched when the input is reused.
func TestReaderStrings(t *testing.T) {
	in := AppendStrs(nil, []string{"mysql", "5.0.22"})
	shared := string(in)
	r := NewReader(in, shared, math.MaxInt)
	got := r.Strs(2)
	if err := r.Done(); err != nil || len(got) != 2 {
		t.Fatalf("Strs = %q, %v", got, err)
	}
	if unsafe.StringData(got[1]) != unsafe.StringData(shared[8:]) {
		t.Fatal("a string read with a shared string is not a slice of it")
	}
	r = NewReader(in, "", math.MaxInt)
	got = r.Strs(2)
	clear(in)
	if err := r.Done(); err != nil || got[0] != "mysql" || got[1] != "5.0.22" {
		t.Fatalf("copied strings after the input was reused = %q, %v", got, err)
	}
}
