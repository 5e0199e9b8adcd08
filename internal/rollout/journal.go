// Package rollout makes a staged deployment a durable, resumable
// artifact instead of an in-memory function call. It layers a
// write-ahead deployment journal and a resume path over the staging
// engine and the live deployment controller:
//
//   - The Journal is an append-only file of JSON records — one plan
//     identity record (policy, seed, upgrade ID, cluster refs, plan hash)
//     followed by every state transition the controller performs (stage
//     started, member tested/integrated/quarantined, fix released, gate
//     passed, abandoned, complete). Each record is one complete JSON
//     line; records whose loss would change what a resume does (the
//     plan, a gate, an abandonment, completion, every rollback record)
//     are fsynced before the caller goes on, the rest are group-committed
//     with the next of those or within a few milliseconds, and Load
//     tolerates a torn final line.
//   - Recorder is the deploy.Observer a journaled controller runs with:
//     the controller's events are journal records already, so it only
//     appends them, syncing the gate, abandoned and rollback records. A
//     record that cannot be persisted halts the plan (write-ahead
//     discipline), which is exactly what makes the journal trustworthy on
//     resume.
//   - Resume folds a journal (deploy.Cursor.Apply) after checking it
//     against a freshly built plan — refusing to resume if the plan hash
//     no longer matches — and returns the deploy.Cursor that lets
//     deploy.Controller.Run skip completed stages and already-integrated
//     members.
//   - Engine wires the three around a deploy.Controller: create-or-resume
//     the journal, install recorder and cursor, run the deployment, seal
//     the journal with a completion record — telling its Observer of every
//     journal record, exactly as the file holds it.
//   - FoldURR rebuilds the report repository from a journal's tested
//     records and the image store beside it: a resumed rollout's URR, or
//     an offline reader's.
package rollout

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/telemetry"
)

// Record is one line of the journal: a deploy.Event, the same JSON the
// control plane streams.
type Record = deploy.Event

// Record types under the names the benchmark (bench/seams.go) uses;
// deploy owns the vocabulary.
const (
	RecStageStart = deploy.RecStageStart
	RecTested     = deploy.RecTested
	RecIntegrated = deploy.RecIntegrated
	RecGate       = deploy.RecGate
	RecComplete   = deploy.RecComplete
)

// DefaultGroupWindow is the longest a buffered (group-committed) record
// waits before a background fsync makes it durable.
const DefaultGroupWindow = 5 * time.Millisecond

// Journal is an append-only deployment journal. Every Append is one
// complete JSON line followed by an fsync, so a crash leaves at worst one
// torn trailing line — which Load discards.
//
// AppendBuffered is the group-commit variant: the line is written to the
// file immediately but the fsync is deferred — to the next durable Append
// (whose fsync commits everything before it in one disk flush), or to a
// background flush once the record has waited GroupWindow. A 100k-member
// rollout writes two records per member; paying one fsync per record is
// minutes of pure disk latency, while one fsync per gate plus a
// few-millisecond window is the same durability where it matters (a gate
// record is still synced before the gate releases, and everything before
// it rides that sync). A staged rollout thus pays one fsync per stage.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	seq  int

	// GroupWindow bounds how long a buffered record may stay unsynced
	// (0 means DefaultGroupWindow). Read at first buffered append.
	GroupWindow time.Duration

	// Observer, when set, is told of each record once the file holds it in
	// full, in file order, under the journal's lock: after the fsync for
	// Append, after the write for AppendBuffered. So an observer that
	// counts records knows the file holds every one it counted and can
	// read them back by seq (Reader) instead of keeping its own copy. It
	// must not call back into the journal; its return value is ignored.
	// Set it before the first append.
	Observer deploy.Observer

	line bytes.Buffer  // the line being written, reused by every append
	enc  *json.Encoder // encodes into line
	rec  Record        // the record being encoded: a field, so encoding boxes no copy

	pending int         // records written but not yet fsynced
	err     error       // sticky: a failed write or sync poisons the journal
	timer   *time.Timer // the open group window: armed by the first buffered record after a sync
	syncs   atomic.Int64

	// fsyncDur and batchSize receive fsync latency and group-commit batch
	// size observations once measure binds them (nil is a no-op).
	fsyncDur, batchSize *telemetry.Histogram
}

// measure binds the journal's fsync latency and batch size histograms on
// reg (nil measures nothing). Call it before the first append.
func (j *Journal) measure(reg *telemetry.Registry) {
	j.fsyncDur = reg.Histogram("mirage_journal_fsync_seconds", "Journal fsync latency.", "", 1e-9).With("")
	j.batchSize = reg.Histogram("mirage_journal_batch_records",
		"Journal records made durable per fsync (group-commit batch size).", "", 1).With("")
}

// Create truncates (or creates) path and returns an empty journal.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rollout: creating journal: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Open opens an existing journal for appending and returns its intact
// records. A torn final line (crash mid-append) is truncated away so new
// records land on a clean boundary; the sequence counter continues after
// the last intact record.
func Open(path string) (*Journal, []Record, error) {
	recs, validLen, err := load(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("rollout: opening journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("rollout: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("rollout: seeking journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if n := len(recs); n > 0 {
		j.seq = recs[n-1].Seq
	}
	return j, recs, nil
}

// Append assigns the record the next sequence number and persists it:
// marshal, write one line, fsync. The fsync also commits every record
// still buffered from AppendBuffered — file syncs are not selective, so a
// durable record is a group-commit barrier for free. An error means the
// record is NOT durably recorded and the caller must not act as if it
// were.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked(rec, true)
}

// AppendBuffered writes the record without waiting for the disk: it
// becomes durable with the next Append/Sync or when the group window
// expires. A background sync failure is sticky and surfaces on the next
// call — the caller must treat it exactly like a failed Append.
func (j *Journal) AppendBuffered(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writeLocked(rec, false); err != nil {
		return err
	}
	if j.timer == nil {
		w := j.GroupWindow
		if w <= 0 {
			w = DefaultGroupWindow
		}
		var t *time.Timer
		t = time.AfterFunc(w, func() { j.flushWindow(&t) })
		j.timer = t
	}
	return nil
}

// writeLocked encodes and writes one line, assigning the sequence number,
// fsyncs it if durable, and tells the observer; callers hold j.mu. The
// line is encoded into the journal's own buffer: json.Encoder writes
// exactly json.Marshal's bytes and a newline. A failed write or sync
// poisons the journal and leaves the sequence where it was, so nothing
// is ever appended after a torn line or across a gap in the seqs.
func (j *Journal) writeLocked(rec Record, durable bool) error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return fmt.Errorf("rollout: journal %s is closed", j.path)
	}
	if j.enc == nil {
		j.enc = json.NewEncoder(&j.line)
	}
	rec.Seq = j.seq + 1
	j.line.Reset()
	j.rec = rec
	err := j.enc.Encode(&j.rec)
	j.rec = Record{}
	if err != nil {
		return fmt.Errorf("rollout: encoding journal record: %w", err)
	}
	if _, err := j.f.Write(j.line.Bytes()); err != nil {
		j.err = fmt.Errorf("rollout: appending to journal: %w", err)
		return j.err
	}
	j.pending++
	if durable {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	j.seq = rec.Seq
	if j.Observer != nil {
		j.Observer.OnEvent(rec) //nolint:errcheck — the record is written; the observer only follows
	}
	return nil
}

// syncLocked fsyncs the file, settles the pending count and disarms the
// group window, which has nothing left to flush: the next buffered record
// opens a fresh one, so none waits longer than GroupWindow and no window
// armed in one stage fsyncs part of a later one. Callers hold j.mu. A
// failed sync poisons the journal: what the disk holds of the pending
// records is unknown.
func (j *Journal) syncLocked() error {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	batch := j.pending
	t0 := time.Now()
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("rollout: syncing journal: %w", err)
		return j.err
	}
	j.fsyncDur.ObserveSince(t0)
	j.batchSize.Observe(int64(batch))
	j.syncs.Add(1)
	j.pending = 0
	return nil
}

// flushWindow is the group-commit timer callback of the window whose
// timer is *t: it syncs whatever is pending; a failure is sticky (the
// rollout must halt at the next record, not discover the loss at resume
// time). A window that a sync or Close disarmed after its timer fired is
// no longer j.timer, and does nothing: it cannot clear a newer window.
func (j *Journal) flushWindow(t **time.Timer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.timer != *t {
		return
	}
	j.timer = nil
	if j.f == nil || j.pending == 0 || j.err != nil {
		return
	}
	j.syncLocked() //nolint:errcheck — sticky in j.err
}

// Close syncs any buffered records and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	var serr error
	if j.pending > 0 && j.err == nil {
		serr = j.syncLocked()
	}
	err := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return err
}

// maxLine bounds one journal line on read.
const maxLine = 16 * 1024 * 1024

// Load reads the journal's intact records. A torn final line — the
// signature of a crash mid-append — is silently discarded; corruption
// anywhere else, or a broken sequence, is an error (the journal cannot be
// trusted for resume).
func Load(path string) ([]Record, error) {
	recs, _, err := load(path)
	return recs, err
}

// load is Load plus the byte length of the intact prefix, which Open uses
// to truncate a torn tail before appending.
func load(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("rollout: reading journal: %w", err)
	}
	defer f.Close()

	var recs []Record
	var validLen, lastLen int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			validLen++ // a bare newline; keep offsets honest
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			// Only the final line may be torn; anything earlier is
			// corruption.
			if sc.Scan() {
				return nil, 0, fmt.Errorf("rollout: journal %s: corrupt record at line %d: %v", path, line, err)
			}
			return recs, validLen, nil
		}
		if want := len(recs) + 1; rec.Seq != want {
			return nil, 0, fmt.Errorf("rollout: journal %s: record %d has seq %d, want %d", path, line, rec.Seq, want)
		}
		recs = append(recs, rec)
		lastLen = int64(len(raw)) + 1
		validLen += lastLen
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("rollout: reading journal %s: %w", path, err)
	}
	// The trailing newline is part of a record's commit. If the file ends
	// exactly at the last record's bytes with no newline, the append was
	// torn mid-write even though the JSON happens to parse — drop it.
	if st, err := f.Stat(); err == nil && validLen > st.Size() && len(recs) > 0 {
		recs = recs[:len(recs)-1]
		validLen -= lastLen
	}
	return recs, validLen, nil
}

// indexStride is the seq distance between two entries of a Reader's
// offset index.
const indexStride = 1024

// Reader reads a journal's records by seq, while the journal may still
// be growing. It keeps a sparse index, the byte offset of every
// indexStride-th record, which reads fill in as they scan past those
// records, so a read seeks near its first record instead of scanning the
// file from the start, and decodes only the records it returns. It reads
// only records its caller knows the file holds in full (those a
// Journal.Observer was told of), and trusts the file's prefix not to
// change: a journal only appends, and Open truncates only a torn tail.
type Reader struct {
	path string
	mu   sync.Mutex
	offs []int64 // offs[k]: where the record with seq k*indexStride+1 starts
}

// NewReader returns a reader of the journal at path.
func NewReader(path string) *Reader { return &Reader{path: path, offs: []int64{0}} }

// Read appends the records with seq in (since, upto] to dst and returns
// it. The file must hold every one of them.
func (r *Reader) Read(dst []Record, since, upto int) ([]Record, error) {
	if since >= upto {
		return dst, nil
	}
	r.mu.Lock()
	k := min(max(since, 0)/indexStride, len(r.offs)-1)
	off := r.offs[k]
	r.mu.Unlock()
	f, err := os.Open(r.path)
	if err != nil {
		return dst, fmt.Errorf("rollout: reading journal: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return dst, fmt.Errorf("rollout: reading journal: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	seq := k * indexStride // the seq of the record before off
	for seq < upto && sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			off++
			continue
		}
		if seq%indexStride == 0 {
			r.note(seq/indexStride, off)
		}
		seq++
		off += int64(len(raw)) + 1
		if seq <= since {
			continue
		}
		dst = append(dst, Record{})
		if err := json.Unmarshal(raw, &dst[len(dst)-1]); err != nil {
			return dst[:len(dst)-1], fmt.Errorf("rollout: journal %s: corrupt record %d: %v", r.path, seq, err)
		}
		if got := dst[len(dst)-1].Seq; got != seq {
			return dst[:len(dst)-1], fmt.Errorf("rollout: journal %s: record %d has seq %d", r.path, seq, got)
		}
	}
	if err := sc.Err(); err != nil {
		return dst, fmt.Errorf("rollout: reading journal %s: %w", r.path, err)
	}
	if seq < upto {
		return dst, fmt.Errorf("rollout: journal %s ends at seq %d, want %d", r.path, seq, upto)
	}
	return dst, nil
}

// note records that the record with seq k*indexStride+1 starts at off.
func (r *Reader) note(k int, off int64) {
	r.mu.Lock()
	if k == len(r.offs) {
		r.offs = append(r.offs, off)
	}
	r.mu.Unlock()
}
