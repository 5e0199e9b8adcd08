package rollout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/deploy"
	"repro/internal/report"
	"repro/internal/staging"
)

// tested is a member's passing verdict, the commonest journal record.
func tested(i int) Record {
	return Record{Type: RecTested, Stage: i % 7, Node: fmt.Sprintf("m%d", i), Cluster: "c0", UpgradeID: "v1", Success: true}
}

// TestLineIsMarshal: the journal encodes into its own buffer, and every
// line it writes is json.Marshal's bytes plus a newline — HTML-escaped
// strings, failure signatures and cluster refs included.
func TestLineIsMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: deploy.RecPlan, Policy: "balanced", Seed: 7, PlanHash: "abc", Stage: -1, UpgradeID: "v1",
			Clusters: []staging.ClusterRef{{Name: "c0", Distance: 1}, {Name: "c<1>", Distance: 2}}},
		tested(1),
		{Type: RecTested, Stage: 0, Node: "m&2", Cluster: "c0", UpgradeID: "v1", Round: 3,
			Failure: &report.Failure{Reasons: []string{"<exit 1>", "élan"}}},
		{Type: deploy.RecDrift, Stage: -1, Node: "m3", Cluster: "c0", Reason: "drifted to \"cluster7\"\n"},
	}
	var want bytes.Buffer
	for i, r := range recs {
		if i%2 == 0 {
			err = j.Append(r)
		} else {
			err = j.AppendBuffered(r)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.Seq = i + 1
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(b, '\n'))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("journal\n%s\nwant json.Marshal's lines\n%s", got, want.Bytes())
	}
}

// TestStickyWriteFailure: a write that fails poisons the journal. Every
// later append and sync returns that first error, the sequence does not
// advance, and the file loads cleanly up to the last good record — never
// a record past a gap in the seqs.
func TestStickyWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 1; i <= 3; i++ {
		if err := j.AppendBuffered(tested(i)); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	real := j.f
	j.f = ro // one append through a handle that cannot write
	first := j.AppendBuffered(tested(4))
	j.f = real
	if first == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	for i, call := range []func() error{
		func() error { return j.AppendBuffered(tested(5)) },
		func() error { return j.Append(tested(6)) },
		j.Sync,
	} {
		if err := call(); err != first {
			t.Fatalf("call %d after the failure returned %v, want the first error %v", i, err, first)
		}
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("journal holds %d records after a failed write, want the 3 written before it", len(recs))
	}
}

// TestReaderBySeq: a Reader returns exactly the records Load does, for
// ranges inside one index stride, across strides, from the start and out
// of order, filling its sparse index as it scans; it refuses a range the
// file does not hold.
func TestReaderBySeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*indexStride + 100
	for i := 1; i <= n; i++ {
		if err := j.AppendBuffered(tested(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(path)
	var buf []Record
	for _, c := range [][2]int{
		{2*indexStride + 5, 2*indexStride + 9}, // past the index: scans from the start
		{0, 3},
		{indexStride - 1, indexStride + 1}, // across a stride boundary
		{2*indexStride - 2, n},
		{10, 10},
		{0, n},
		{indexStride, 2 * indexStride},
	} {
		buf, err = r.Read(buf[:0], c[0], c[1])
		if err != nil {
			t.Fatalf("Read(%d, %d): %v", c[0], c[1], err)
		}
		if want := all[c[0]:c[1]]; len(buf) != len(want) || len(want) > 0 && !reflect.DeepEqual(buf, want) {
			t.Fatalf("Read(%d, %d) = %d records, want %d", c[0], c[1], len(buf), len(want))
		}
	}
	if len(r.offs) != n/indexStride+1 {
		t.Fatalf("index has %d entries after reading the whole journal, want %d", len(r.offs), n/indexStride+1)
	}
	if _, err := r.Read(nil, n-1, n+1); err == nil {
		t.Fatal("read past the journal's end succeeded")
	}
}
