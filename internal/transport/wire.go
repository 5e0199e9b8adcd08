// Package transport makes Mirage distributed: a vendor-side TCP server, a
// user-machine agent, and a binary wire protocol carrying fingerprint
// exchanges, upgrade pushes, validation commands and problem reports.
//
// Agents dial the vendor and keep a persistent control channel open (the
// usual arrangement for fleet management behind NAT); all subsequent RPCs
// are vendor-initiated over that channel. Remote agents appear to the
// deployment controller as deploy.Node values, so the staged protocols
// need know nothing of the wire.
//
// Wire format: every message is one length-prefixed binary frame,
//
//	frame  = uvarint(n) body                  n = len(body) ≤ maxFrame
//	body   = version:1 op:1 uvarint(fields) field*
//
// where fields is a bitmask naming the Frame fields present, which follow
// in bit order, and an op admits only its own fields (opFields). A frame
// may announce raw bodies that follow it on the stream: an upgrade
// manifest in distrib's binary encoding (the manifest field), a failure
// report's machine image (the report's image length), or chunk bytes
// (chunk_meta). Counts and lengths are uvarints, each bounded both by the
// bytes left and by a typed per-field cap; strings are length-prefixed;
// content addresses and signatures are 8 little-endian bytes; signed
// integers are zigzag varints.
//
// The encoding is canonical, after distrib's manifest encoding: a field is
// present exactly when it is not its zero value, map keys are sorted, and
// the decoder refuses overlong varints, booleans other than 0 and 1,
// fields its op does not admit, counts over their caps and bytes left
// over inside the frame. So every frame the decoder accepts re-encodes to
// itself.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/distrib"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/resource"
)

// Frame is one message on the wire. Requests carry Op and a payload field;
// responses echo ID and fill Err or a payload field.
type Frame struct {
	ID int
	Op string
	// Err is set on failed responses.
	Err string

	// Request payloads. Fingerprint is kept encoded (encodeFingerprintReq)
	// because its body — the vendor item list and registry — is identical
	// for every agent of a profiling fan-out: the server encodes it once
	// per collection and reuses the bytes across the fleet.
	Register    *RegisterReq
	Identify    *IdentifyReq
	Record      *RecordReq
	Fingerprint []byte
	PeerFetch   *PeerFetchReq
	Delta       *ProfileDeltaReq

	// Manifest is the upgrade an OpTest or OpIntegrate request names. The
	// frame carries only its length: WriteFrame writes the manifest's
	// memoized binary encoding right after the frame, and ReadFrame reads
	// and decodes exactly that many bytes. Chunks the agent lacks follow
	// in an OpFetchChunks push.
	Manifest *distrib.Manifest

	// ChunkMeta announces a binary chunk body: immediately after this
	// frame follow the raw bytes of each listed chunk, in order, ref.Size
	// bytes each — no per-chunk framing. Used by every OpFetchChunks push
	// and every OpPeerGet response.
	ChunkMeta []distrib.ChunkRef

	// Response payloads.
	Resources []string
	Diff      []WireItem
	AppSet    string
	// Report's machine image, when it has one, rides as a raw body behind
	// the frame, bounded by maxImageBody rather than by the frame cap.
	Report *report.Report
	// NeedChunks is the agent's reply to a manifest-bearing test or
	// integrate request whose chunks are not all cached yet: the missing
	// content addresses. The vendor answers with an OpFetchChunks push and
	// then re-issues the original request, which by then resolves locally.
	NeedChunks []uint64
	// Peer is the agent's report of an OpPeerFetch round: how much the
	// peer tier served (and which peers were dropped), so the vendor's
	// transfer counters see bytes it never itself moved.
	Peer *PeerResult
	// OK acknowledges a successful response. A handler that forgot to
	// acknowledge must be distinguishable from a successful empty reply,
	// so the vendor rejects replies with neither Err nor OK set.
	OK     bool
	Status string
}

// Operation names.
const (
	OpRegister    = "register"
	OpIdentify    = "identify"
	OpRecord      = "record"
	OpFingerprint = "fingerprint"
	OpTest        = "test_upgrade"
	OpIntegrate   = "integrate"
	// OpPing is a lightweight liveness probe: no payload either way, the
	// agent just acknowledges. The vendor uses it to tell reachable
	// machines from dead ones without spending a validation run.
	OpPing = "ping"
	// OpFetchChunks delivers the chunk bytes an agent reported missing
	// from a manifest. Like every other RPC it is vendor-initiated (the
	// agent sits behind its persistent control channel), so "fetch" is
	// realized as a push of exactly the requested set.
	OpFetchChunks = "fetch_chunks"
	// OpPeerFetch asks the agent to pull the listed chunk addresses from
	// the hinted peers — members of already-gated waves the vendor knows
	// hold them — before the vendor falls back to pushing the remainder
	// itself. The reply's NeedChunks is what the peer tier could not
	// serve; its Peer payload books the bytes that moved peer-to-peer.
	OpPeerFetch = "peer_fetch"
	// OpPeerGet is the peer tier's own request, sent agent-to-agent on a
	// short-lived connection to the serving agent's peer port: "send me
	// whichever of these addresses you hold". The response is a binary
	// chunk frame (ChunkMeta + raw bytes); content addresses make the
	// transfer self-verifying, so a peer needs no trust beyond the digest
	// check every fetched chunk already passes.
	OpPeerGet = "peer_get"
	// OpProfileDelta is a watch-mode agent's push of a profile change: the
	// items added to / removed from its diff-against-vendor since the last
	// acknowledged profile, sent on a short-lived agent-initiated
	// connection (like OpPeerGet, not over the control channel — drift
	// detection must not contend with an in-flight rollout RPC). The
	// vendor replies OK, or Status "resync" when it cannot fold the delta,
	// upon which the agent re-sends its full profile with Full set.
	OpProfileDelta = "profile_delta"
)

// StatusResync is the vendor's reply status asking a delta-pushing agent
// to re-send its complete profile.
const StatusResync = "resync"

// RegisterReq announces the machine to the vendor. It and OpProfileDelta
// are the only agent-initiated messages.
type RegisterReq struct {
	Machine string
	// Peer, when non-empty, advertises the address of the agent's peer
	// chunk server (Agent.ServePeers): the vendor may hint this agent to
	// others once its waves gate.
	Peer string
}

// IdentifyReq asks the agent to run local resource identification for app
// over the given workloads.
type IdentifyReq struct {
	App       string
	Workloads [][]string
}

// RecordReq asks the agent to record a baseline trace of app.
type RecordReq struct {
	App    string
	Inputs []string
}

// FingerprintReq carries the vendor's resource references, registry
// configuration and reference item list; the agent answers with the item
// diff and its application-set key.
type FingerprintReq struct {
	App         string
	Refs        []string
	Registry    RegistryConfig
	VendorItems []WireItem
}

// PeerFetchReq directs an agent to pull chunk addresses from peers, in
// hint order. The vendor pre-filters Peers to gated-wave members whose
// chunk-location index entries cover some of Addrs, so the agent tries
// them blindly and reports what remains.
type PeerFetchReq struct {
	Addrs []uint64
	Peers []string
}

// PeerResult books one OpPeerFetch round from the agent's side.
type PeerResult struct {
	// Chunks and Bytes total what the peer tier delivered.
	Chunks int
	Bytes  int64
	// Failed lists peers dropped mid-fetch: dead, unreachable, or
	// serving bytes whose digest did not match the requested address.
	Failed []string
}

// ProfileDeltaReq is one watch-mode profile push. Added and Removed are
// the items that entered/left the machine's diff-against-vendor since its
// last acknowledged profile — for content resources these are CDC chunk
// digests, so an edited config file costs a handful of items, and an
// unchanged machine sends nothing at all. Sig is the signature of the
// complete post-change diff set; the vendor verifies it after folding and
// answers Status "resync" on mismatch. Full marks a complete profile
// (first contact or resync answer): Added is the whole diff, Removed is
// ignored.
//
// The wire never uses its JSON tags, nor WireItem's: they are the form the
// vendor's delta-bytes histogram and the benchmark's fleet-churn workload
// meter a delta by.
type ProfileDeltaReq struct {
	Machine string     `json:"machine"`
	App     string     `json:"app"`
	AppSet  string     `json:"appset"`
	Sig     uint64     `json:"sig"`
	Added   []WireItem `json:"added,omitempty"`
	Removed []WireItem `json:"removed,omitempty"`
	Full    bool       `json:"full,omitempty"`
}

// WireItem is a serialized resource item.
type WireItem struct {
	Key  string `json:"k"`
	Hash uint64 `json:"h"`
	Kind int    `json:"t"`
}

// ItemsToWire serializes items.
func ItemsToWire(items []resource.Item) []WireItem {
	out := make([]WireItem, len(items))
	for i, it := range items {
		out[i] = WireItem{Key: it.Key, Hash: it.Hash, Kind: int(it.Kind)}
	}
	return out
}

// ItemsFromWire rebuilds an item set.
func ItemsFromWire(items []WireItem) *resource.Set {
	s := resource.NewSet(len(items))
	for _, w := range items {
		s.Add(resource.Item{Key: w.Key, Hash: w.Hash, Kind: resource.Kind(w.Kind)})
	}
	return s
}

// RegistryRule is one serialized parser binding. Parsers are code shipped
// in both binaries; the wire carries only the binding of paths/globs/types
// to parser names plus parser options.
type RegistryRule struct {
	// Match is "path", "glob" or "type".
	Match   string
	Pattern string // for path/glob
	Type    int    // for type matches
	// Parser is "executable", "sharedlib", "text", "config" or "binary".
	Parser     string
	IgnoreKeys []string // config parser option
}

// RegistryConfig is the serialized parser registry.
type RegistryConfig struct {
	Rules []RegistryRule
}

// frameVersion is the first byte of every frame body. A peer speaking
// another version — or the newline-terminated JSON headers this protocol
// replaced, whose second byte is never this — is refused at that byte.
// Version 2 dropped the report fields no agent sets: ID, cluster and
// sequence.
const frameVersion = 2

// Op codes, the second byte of a frame body. A reply has no op name.
const (
	opReply byte = iota
	opRegister
	opIdentify
	opRecord
	opFingerprint
	opTest
	opIntegrate
	opPing
	opFetchChunks
	opPeerFetch
	opPeerGet
	opProfileDelta
	opCount
)

// opNames interns the op names: a decoded frame's Op is one of these
// strings, never a fresh allocation.
var opNames = [opCount]string{
	opReply: "", opRegister: OpRegister, opIdentify: OpIdentify, opRecord: OpRecord,
	opFingerprint: OpFingerprint, opTest: OpTest, opIntegrate: OpIntegrate, opPing: OpPing,
	opFetchChunks: OpFetchChunks, opPeerFetch: OpPeerFetch, opPeerGet: OpPeerGet,
	opProfileDelta: OpProfileDelta,
}

func opCode(name string) (byte, bool) {
	for i, n := range opNames {
		if n == name {
			return byte(i), true
		}
	}
	return 0, false
}

// Frame field bits, in the order present fields follow the mask.
const (
	fID = 1 << iota
	fErr
	fOK
	fStatus
	fRegister
	fIdentify
	fRecord
	fFingerprint
	fPeerFetch
	fDelta
	fManifest
	fChunkMeta
	fResources
	fDiff
	fAppSet
	fReport
	fNeedChunks
	fPeer
)

// opFields is the set of fields each op admits.
var opFields = [opCount]uint64{
	opReply: fID | fErr | fOK | fStatus | fResources | fDiff | fAppSet | fReport |
		fNeedChunks | fPeer | fChunkMeta,
	opRegister:     fID | fRegister,
	opIdentify:     fID | fIdentify,
	opRecord:       fID | fRecord,
	opFingerprint:  fID | fFingerprint,
	opTest:         fID | fManifest,
	opIntegrate:    fID | fManifest,
	opPing:         fID,
	opFetchChunks:  fID | fChunkMeta,
	opPeerFetch:    fID | fPeerFetch,
	opPeerGet:      fID | fNeedChunks,
	opProfileDelta: fID | fDelta,
}

// Caps. maxFrame bounds a frame body and a manifest body; each count the
// decoder reads has a cap of its own besides the bytes left.
const (
	// maxFrame is the frame cap. Payload rides behind frames as raw
	// bodies, so frames are small: a test or integrate request is under
	// 10 bytes; the longest frame the tier-1 suite writes is 1.0 KB (a
	// fingerprint request) and the longest of the five bench workloads
	// 1.5 KB (swarm-cold's chunk_meta for its 528 KiB upgrade). The
	// longest manifest bodies are 4.8 KB and 1.6 KB. The cap is what
	// keeps a peer announcing a huge frame or manifest from growing the
	// reader's buffers without limit.
	maxFrame = 1 << 20 // 1MB
	// maxWireString bounds every string: names, paths, errors, reasons.
	maxWireString = 1 << 16
	// maxChunkRefs bounds ChunkMeta, NeedChunks and PeerFetch.Addrs: an
	// upgrade of at most 65536 chunks, about 256 MiB at the chunker's
	// 4 KiB average.
	maxChunkRefs = 1 << 16
	// maxItems bounds Diff, a delta's Added and Removed, and a fingerprint
	// request's vendor items.
	maxItems = 1 << 16
	// maxResources bounds Resources and a fingerprint request's Refs.
	maxResources = 1 << 14
	// maxArgs bounds Identify's workloads, each workload's arguments and
	// Record's inputs.
	maxArgs = 1 << 10
	// maxRules bounds a registry's rules and each rule's ignored keys.
	maxRules = 1 << 8
	// maxReportList bounds a report's FailedApps and Reasons.
	maxReportList = 1 << 10
	// maxImageFiles bounds an image's files and each package's file list;
	// maxImageEntries its environment and its packages.
	maxImageFiles   = 1 << 16
	maxImageEntries = 1 << 12
)

// maxImageBody bounds a report image's body, as maxWireChunk bounds a
// chunk's: an image carries whole files, so the frame cap cannot bound
// it. An agent whose image is larger sends its report without one. A
// variable only so tests can lower it.
var maxImageBody = 1 << 26 // 64MB

// Refusal reasons: the label values of mirage_frames_refused_total.
const (
	refusedVersion  = "version"
	refusedTooLarge = "too_large"
	refusedBadField = "bad_field"
	refusedTrailing = "trailing"
)

// frameError is a frame the reader refused. The stream cannot be
// resynchronized after it; callers drop the connection.
type frameError struct {
	// reason is refusedVersion, refusedTooLarge, refusedBadField or
	// refusedTrailing.
	reason string
	msg    string
	err    error // ErrFrameTooLarge for too_large, a decoder's error for bad bodies
}

func (e *frameError) Error() string {
	if e.err != nil {
		return "transport: frame refused (" + e.reason + "): " + e.msg + ": " + e.err.Error()
	}
	return "transport: frame refused (" + e.reason + "): " + e.msg
}

func (e *frameError) Unwrap() error { return e.err }

func refuse(reason string, err error, format string, args ...any) *frameError {
	if reason == refusedTooLarge {
		err = ErrFrameTooLarge
	}
	return &frameError{reason: reason, msg: fmt.Sprintf(format, args...), err: err}
}

// fields returns the mask of f's non-zero fields.
func (f *Frame) fields() uint64 {
	var m uint64
	if f.ID != 0 {
		m |= fID
	}
	if f.Err != "" {
		m |= fErr
	}
	if f.OK {
		m |= fOK
	}
	if f.Status != "" {
		m |= fStatus
	}
	if f.Register != nil {
		m |= fRegister
	}
	if f.Identify != nil {
		m |= fIdentify
	}
	if f.Record != nil {
		m |= fRecord
	}
	if len(f.Fingerprint) > 0 {
		m |= fFingerprint
	}
	if f.PeerFetch != nil {
		m |= fPeerFetch
	}
	if f.Delta != nil {
		m |= fDelta
	}
	if f.Manifest != nil {
		m |= fManifest
	}
	if len(f.ChunkMeta) > 0 {
		m |= fChunkMeta
	}
	if len(f.Resources) > 0 {
		m |= fResources
	}
	if len(f.Diff) > 0 {
		m |= fDiff
	}
	if f.AppSet != "" {
		m |= fAppSet
	}
	if f.Report != nil {
		m |= fReport
	}
	if len(f.NeedChunks) > 0 {
		m |= fNeedChunks
	}
	if f.Peer != nil {
		m |= fPeer
	}
	return m
}

// appendFrame appends f's body to b. manifestLen and imageLen are the
// lengths of the bodies WriteFrame sends behind it. It refuses only what
// no frame can say — an unknown op, a field the op does not admit, a
// negative ID; the per-field caps are the reader's to enforce.
func appendFrame(b []byte, f *Frame, manifestLen, imageLen int) ([]byte, error) {
	op, ok := opCode(f.Op)
	if !ok {
		return b, fmt.Errorf("transport: unknown op %q", f.Op)
	}
	mask := f.fields()
	if extra := mask &^ opFields[op]; extra != 0 {
		return b, fmt.Errorf("transport: a %q frame cannot carry fields %#x", f.Op, extra)
	}
	if f.ID < 0 {
		return b, fmt.Errorf("transport: frame id %d", f.ID)
	}
	b = append(b, frameVersion, op)
	b = binary.AppendUvarint(b, mask)
	if mask&fID != 0 {
		b = binary.AppendUvarint(b, uint64(f.ID))
	}
	if mask&fErr != 0 {
		b = appendStr(b, f.Err)
	}
	if mask&fStatus != 0 {
		b = appendStr(b, f.Status)
	}
	if r := f.Register; r != nil {
		b = appendStr(appendStr(b, r.Machine), r.Peer)
	}
	if r := f.Identify; r != nil {
		b = appendStr(b, r.App)
		b = binary.AppendUvarint(b, uint64(len(r.Workloads)))
		for _, w := range r.Workloads {
			b = appendStrs(b, w)
		}
	}
	if r := f.Record; r != nil {
		b = appendStrs(appendStr(b, r.App), r.Inputs)
	}
	if mask&fFingerprint != 0 {
		b = appendStr(b, f.Fingerprint)
	}
	if r := f.PeerFetch; r != nil {
		b = appendStrs(appendAddrs(b, r.Addrs), r.Peers)
	}
	if d := f.Delta; d != nil {
		b = appendStr(appendStr(appendStr(b, d.Machine), d.App), d.AppSet)
		b = binary.LittleEndian.AppendUint64(b, d.Sig)
		b = appendItems(appendItems(b, d.Added), d.Removed)
		b = appendBool(b, d.Full)
	}
	if mask&fManifest != 0 {
		b = binary.AppendUvarint(b, uint64(manifestLen))
	}
	if mask&fChunkMeta != 0 {
		b = appendChunkRefs(b, f.ChunkMeta)
	}
	if mask&fResources != 0 {
		b = appendStrs(b, f.Resources)
	}
	if mask&fDiff != 0 {
		b = appendItems(b, f.Diff)
	}
	if mask&fAppSet != 0 {
		b = appendStr(b, f.AppSet)
	}
	if r := f.Report; r != nil {
		b = appendStr(appendStr(b, r.UpgradeID), r.Machine)
		b = appendBool(b, r.Success)
		b = appendStrs(appendStrs(b, r.FailedApps), r.Reasons)
		b = binary.AppendUvarint(b, uint64(imageLen))
	}
	if mask&fNeedChunks != 0 {
		b = appendAddrs(b, f.NeedChunks)
	}
	if p := f.Peer; p != nil {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(p.Chunks)), p.Bytes)
		b = appendStrs(b, p.Failed)
	}
	return b, nil
}

func appendStr[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendAddrs(b []byte, addrs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	return b
}

func appendChunkRefs(b []byte, refs []distrib.ChunkRef) []byte {
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, ref := range refs {
		b = binary.LittleEndian.AppendUint64(b, ref.Hash)
		b = binary.AppendUvarint(b, uint64(ref.Size))
	}
	return b
}

func appendItems(b []byte, items []WireItem) []byte {
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = appendStr(b, it.Key)
		b = binary.LittleEndian.AppendUint64(b, it.Hash)
		b = binary.AppendVarint(b, int64(it.Kind))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeFrame decodes a frame body into f, which must be zero, and returns
// the lengths of the manifest and image bodies that follow it. Strings
// and slices are copied out of b, which the caller may reuse.
func decodeFrame(b []byte, f *Frame) (manifestLen, imageLen int, err error) {
	if len(b) < 2 {
		return 0, 0, refuse(refusedBadField, nil, "%d-byte frame", len(b))
	}
	if b[0] != frameVersion {
		return 0, 0, refuse(refusedVersion, nil, "version %d", b[0])
	}
	op := b[1]
	if op >= opCount {
		return 0, 0, refuse(refusedBadField, nil, "op %d", op)
	}
	f.Op = opNames[op]
	r := wireReader{b: b, off: 2}
	mask := r.uvarint()
	if extra := mask &^ opFields[op]; extra != 0 {
		r.fail("a %q frame cannot carry fields %#x", f.Op, extra)
	}
	if mask&fID != 0 {
		f.ID = r.positive(math.MaxInt)
	}
	if mask&fErr != 0 {
		f.Err = r.nonEmptyStr()
	}
	f.OK = mask&fOK != 0
	if mask&fStatus != 0 {
		f.Status = r.nonEmptyStr()
	}
	if mask&fRegister != 0 {
		f.Register = &RegisterReq{Machine: r.str(), Peer: r.str()}
	}
	if mask&fIdentify != 0 {
		req := &IdentifyReq{App: r.str()}
		if n := r.count(1, maxArgs); n > 0 {
			req.Workloads = make([][]string, n)
			for i := range req.Workloads {
				req.Workloads[i] = r.strs(maxArgs)
			}
		}
		f.Identify = req
	}
	if mask&fRecord != 0 {
		f.Record = &RecordReq{App: r.str(), Inputs: r.strs(maxArgs)}
	}
	if mask&fFingerprint != 0 {
		if i, j := r.span(maxFrame); i < j {
			f.Fingerprint = append([]byte(nil), b[i:j]...)
		} else {
			r.fail("empty fingerprint")
		}
	}
	if mask&fPeerFetch != 0 {
		f.PeerFetch = &PeerFetchReq{Addrs: r.addrs(maxChunkRefs), Peers: r.strs(MaxPeerHints)}
	}
	if mask&fDelta != 0 {
		f.Delta = &ProfileDeltaReq{Machine: r.str(), App: r.str(), AppSet: r.str(), Sig: r.addr(),
			Added: r.items(maxItems), Removed: r.items(maxItems), Full: r.boolean()}
	}
	if mask&fManifest != 0 {
		if manifestLen = r.bodyLen(maxFrame, "manifest"); manifestLen == 0 {
			r.fail("empty manifest body")
		}
	}
	if mask&fChunkMeta != 0 {
		f.ChunkMeta = r.chunkRefs()
		r.nonEmpty(len(f.ChunkMeta))
	}
	if mask&fResources != 0 {
		f.Resources = r.strs(maxResources)
		r.nonEmpty(len(f.Resources))
	}
	if mask&fDiff != 0 {
		f.Diff = r.items(maxItems)
		r.nonEmpty(len(f.Diff))
	}
	if mask&fAppSet != 0 {
		f.AppSet = r.nonEmptyStr()
	}
	if mask&fReport != 0 {
		rep := &report.Report{UpgradeID: r.str(), Machine: r.str(),
			Success: r.boolean(), FailedApps: r.strs(maxReportList), Reasons: r.strs(maxReportList)}
		imageLen = r.bodyLen(maxImageBody, "image")
		f.Report = rep
	}
	if mask&fNeedChunks != 0 {
		f.NeedChunks = r.addrs(maxChunkRefs)
		r.nonEmpty(len(f.NeedChunks))
	}
	if mask&fPeer != 0 {
		f.Peer = &PeerResult{Chunks: r.varint(), Bytes: r.varint64(), Failed: r.strs(MaxPeerHints)}
	}
	if err := r.done("frame"); err != nil {
		return 0, 0, err
	}
	return manifestLen, imageLen, nil
}

// wireReader walks one encoding — a frame body, a fingerprint request or
// an image. The first violation sticks: every later read returns a zero
// value, and a zero count allocates nothing, so callers check err once
// at the end.
type wireReader struct {
	b   []byte
	off int
	err *frameError
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = refuse(refusedBadField, nil, format+" at byte %d", append(args, r.off)...)
	}
}

// uvarint reads one canonical uvarint: a minimal encoding's last byte is
// non-zero unless it is the only one.
func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads an element count, refusing one over limit or one the
// remaining input cannot hold at least bytes per element.
func (r *wireReader) count(least, limit int) int {
	v := r.uvarint()
	if v > uint64(limit) {
		r.fail("count %d over its cap %d", v, limit)
		return 0
	}
	if v > uint64((len(r.b)-r.off)/least) {
		r.fail("count %d exceeds the input", v)
		return 0
	}
	return int(v)
}

// nonEmpty refuses an empty list in a field whose presence says it is not.
func (r *wireReader) nonEmpty(n int) {
	if n == 0 {
		r.fail("empty list present")
	}
}

// positive reads a uvarint in [1, limit].
func (r *wireReader) positive(limit uint64) int {
	v := r.uvarint()
	if r.err == nil && (v == 0 || v > limit) {
		r.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

// bodyLen reads the length of a body that follows the frame, refused as
// too large beyond limit.
func (r *wireReader) bodyLen(limit int, what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(limit) {
		r.err = refuse(refusedTooLarge, nil, "%s body of %d bytes over its cap %d", what, v, limit)
		return 0
	}
	return int(v)
}

func (r *wireReader) span(limit int) (int, int) {
	n := r.count(1, limit)
	start := r.off
	r.off += n
	return start, r.off
}

// str reads a string, copying it out of the input.
func (r *wireReader) str() string {
	i, j := r.span(maxWireString)
	return string(r.b[i:j])
}

func (r *wireReader) nonEmptyStr() string {
	s := r.str()
	if r.err == nil && s == "" {
		r.fail("empty string present")
	}
	return s
}

func (r *wireReader) strs(limit int) []string {
	n := r.count(1, limit)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *wireReader) addrs(limit int) []uint64 {
	n := r.count(8, limit)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.addr()
	}
	return out
}

func (r *wireReader) chunkRefs() []distrib.ChunkRef {
	n := r.count(9, maxChunkRefs)
	if n == 0 {
		return nil
	}
	out := make([]distrib.ChunkRef, n)
	for i := range out {
		out[i].Hash = r.addr()
		size := r.uvarint()
		if size > maxWireChunk {
			r.fail("chunk of %d bytes", size)
		}
		out[i].Size = int(size)
	}
	return out
}

func (r *wireReader) items(limit int) []WireItem {
	n := r.count(10, limit)
	if n == 0 {
		return nil
	}
	out := make([]WireItem, n)
	for i := range out {
		out[i] = WireItem{Key: r.str(), Hash: r.addr(), Kind: r.varint()}
	}
	return out
}

func (r *wireReader) octet() byte {
	if r.err != nil {
		return 0
	}
	if r.off == len(r.b) {
		r.fail("truncated")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *wireReader) boolean() bool {
	switch c := r.octet(); c {
	case 0, 1:
		return c == 1
	default:
		r.fail("bool %d", c)
		return false
	}
}

// varint64 reads a zigzag varint, canonical like uvarint.
func (r *wireReader) varint64() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// varint reads a zigzag varint that must fit an int.
func (r *wireReader) varint() int {
	v := r.varint64()
	if int64(int(v)) != v {
		r.fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) addr() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// done reports the reader's verdict on a whole encoding: its first
// violation, or bytes left over after it.
func (r *wireReader) done(what string) error {
	if r.err == nil && r.off != len(r.b) {
		r.err = refuse(refusedTrailing, nil, "%d bytes after the %s", len(r.b)-r.off, what)
	}
	if r.err != nil {
		return r.err
	}
	return nil
}

// encodeFingerprintReq returns req's wire form, the Frame.Fingerprint of
// an OpFingerprint request:
//
//	req  = str(App) count(str Refs) count(rule) count(item VendorItems)
//	rule = str(Match) str(Pattern) varint(Type) str(Parser) count(str IgnoreKeys)
//	item = str(Key) hash:8 varint(Kind)
func encodeFingerprintReq(req *FingerprintReq) []byte {
	b := appendStrs(appendStr(nil, req.App), req.Refs)
	b = binary.AppendUvarint(b, uint64(len(req.Registry.Rules)))
	for _, rule := range req.Registry.Rules {
		b = appendStr(appendStr(b, rule.Match), rule.Pattern)
		b = binary.AppendVarint(b, int64(rule.Type))
		b = appendStrs(appendStr(b, rule.Parser), rule.IgnoreKeys)
	}
	return appendItems(b, req.VendorItems)
}

// decodeFingerprintReq parses encodeFingerprintReq's output.
func decodeFingerprintReq(b []byte) (*FingerprintReq, error) {
	r := wireReader{b: b}
	req := &FingerprintReq{App: r.str(), Refs: r.strs(maxResources)}
	if n := r.count(5, maxRules); n > 0 {
		req.Registry.Rules = make([]RegistryRule, n)
		for i := range req.Registry.Rules {
			req.Registry.Rules[i] = RegistryRule{Match: r.str(), Pattern: r.str(), Type: r.varint(),
				Parser: r.str(), IgnoreKeys: r.strs(maxRules)}
		}
	}
	req.VendorItems = r.items(maxItems)
	if err := r.done("fingerprint request"); err != nil {
		return nil, err
	}
	return req, nil
}

// A report image crosses as a raw body behind its report's frame, so its
// file bytes travel unencoded:
//
//	image   = str(MachineName) count(file) count(env) count(package)
//	file    = str(Path) varint(Type) str(Version) bytes(Data)
//	env     = str(key) str(value)             keys ascending, distinct
//	package = str(Name) str(Version) count(str Files)

// imageWireLen returns the length of img's wire form.
func imageWireLen(img *report.Image) int {
	n := strLen(len(img.MachineName)) + uvarintLen(uint64(len(img.Files))) +
		uvarintLen(uint64(len(img.Env))) + uvarintLen(uint64(len(img.Packages)))
	for _, f := range img.Files {
		n += strLen(len(f.Path)) + varintLen(int64(f.Type)) + strLen(len(f.Version)) + strLen(len(f.Data))
	}
	for k, v := range img.Env {
		n += strLen(len(k)) + strLen(len(v))
	}
	for _, p := range img.Packages {
		n += strLen(len(p.Name)) + strLen(len(p.Version)) + uvarintLen(uint64(len(p.Files)))
		for _, f := range p.Files {
			n += strLen(len(f))
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func strLen(n int) int { return uvarintLen(uint64(n)) + n }

// appendImage appends img's wire form to b.
func appendImage(b []byte, img *report.Image) []byte {
	b = appendStr(b, img.MachineName)
	b = binary.AppendUvarint(b, uint64(len(img.Files)))
	for _, f := range img.Files {
		b = appendStr(b, f.Path)
		b = binary.AppendVarint(b, int64(f.Type))
		b = appendStr(appendStr(b, f.Version), f.Data)
	}
	keys := make([]string, 0, len(img.Env))
	for k := range img.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendStr(appendStr(b, k), img.Env[k])
	}
	b = binary.AppendUvarint(b, uint64(len(img.Packages)))
	for _, p := range img.Packages {
		b = appendStrs(appendStr(appendStr(b, p.Name), p.Version), p.Files)
	}
	return b
}

// decodeImage parses appendImage's output. The files' Data slices share
// b, which the image keeps.
func decodeImage(b []byte) (*report.Image, error) {
	r := wireReader{b: b}
	img := &report.Image{MachineName: r.str()}
	if n := r.count(4, maxImageFiles); n > 0 {
		img.Files = make([]report.FileState, n)
		for i := range img.Files {
			f := &img.Files[i]
			f.Path, f.Type, f.Version = r.str(), machine.FileType(r.varint()), r.str()
			if start, end := r.span(maxImageBody); start < end {
				f.Data = b[start:end:end]
			}
		}
	}
	if n := r.count(2, maxImageEntries); n > 0 {
		img.Env = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			k, v := r.str(), r.str()
			if i > 0 && k <= prev {
				r.fail("environment key %q out of order", k)
			}
			img.Env[k], prev = v, k
		}
	}
	if n := r.count(3, maxImageEntries); n > 0 {
		img.Packages = make([]report.PackageState, n)
		for i := range img.Packages {
			img.Packages[i] = report.PackageState{Name: r.str(), Version: r.str(), Files: r.strs(maxImageFiles)}
		}
	}
	if err := r.done("image"); err != nil {
		return nil, err
	}
	return img, nil
}
