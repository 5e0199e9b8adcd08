// Package link is the grammar both ends of a Mirage connection speak: the
// binary frames the vendor (package transport) and the user-machine agent
// (package agent) exchange — fingerprint exchanges, upgrade pushes,
// validation commands and problem reports — and the raw bodies that ride
// behind them. It holds no policy of either end.
//
// Wire format: every message is one length-prefixed binary frame, a
// grammar over package wire's primitives,
//
//	frame  = uvarint(n) body                  n = len(body) ≤ maxFrame
//	body   = version:1 op:1 uvarint(fields) field*
//
// where fields is a bitmask naming the Frame fields present, which follow
// in bit order, and an op admits only its own fields (opFields). A frame
// may announce raw bodies that follow it on the stream: an upgrade
// manifest in distrib's binary encoding (the manifest field; a test or
// integrate may name one the agent holds by its digest instead), a failure
// report's machine image (the report's image length), or chunk bytes
// (chunk_meta). Every count has a typed per-field cap besides the bytes
// left. A field is present exactly when it is not its zero value and map
// keys are sorted, so the encoding is canonical: the decoder refuses
// fields its op does not admit and empty present fields besides what
// wire.Reader refuses.
package link

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/distrib"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/wire"
)

// Frame is one message on the wire. Requests carry Op and a payload field;
// responses echo ID and fill Err or a payload field.
type Frame struct {
	ID int
	Op string
	// Err is set on failed responses.
	Err string

	// Request payloads. Fingerprint is kept encoded (EncodeFingerprintReq)
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
	// ManifestRef names the request's manifest by its Digest instead: the
	// manifest the vendor last sent in full on this channel, which the
	// agent keeps while a re-test or the integrate may follow. A frame
	// carries Manifest or ManifestRef, never both.
	ManifestRef uint64

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
	// NeedChunks is the agent's reply to a test or integrate request whose
	// chunks are not all cached yet: the missing content addresses. The
	// vendor answers with an OpFetchChunks push and then re-issues the
	// request, naming the manifest by its ManifestRef, which by then
	// resolves locally.
	NeedChunks []uint64
	// Peer is the agent's report of an OpPeerFetch round: how much the
	// peer tier served (and which peers were dropped), so the vendor's
	// transfer counters see bytes it never itself moved.
	Peer *PeerResult
	// OK acknowledges a successful response. A handler that forgot to
	// acknowledge must be distinguishable from a successful empty reply,
	// so the vendor rejects replies with neither Err nor OK set.
	OK bool
	// NeedManifest is the agent's reply to a request whose ManifestRef it
	// cannot resolve: it installed nothing, and the vendor re-issues the
	// request with the manifest in full.
	NeedManifest bool
	Status       string
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

// FailedReply is a reply carrying msg as its error, cut to the wire's
// string cap: an error too long to send must not cost the channel.
func FailedReply(msg string) Frame {
	if len(msg) > maxWireString {
		msg = msg[:maxWireString]
	}
	return Frame{Err: msg}
}

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
	Registry    parser.RegistryConfig
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
	fManifestRef
	fNeedManifest
)

// opFields is the set of fields each op admits.
var opFields = [opCount]uint64{
	opReply: fID | fErr | fOK | fStatus | fResources | fDiff | fAppSet | fReport |
		fNeedChunks | fPeer | fChunkMeta | fNeedManifest,
	opRegister:     fID | fRegister,
	opIdentify:     fID | fIdentify,
	opRecord:       fID | fRecord,
	opFingerprint:  fID | fFingerprint,
	opTest:         fID | fManifest | fManifestRef,
	opIntegrate:    fID | fManifest | fManifestRef,
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
	// bodies, so frames are small: a test or integrate request is at most
	// 10 bytes, prefix included, with its manifest behind it, and 15–17
	// naming it by reference; the longest frame the tier-1 suite writes is
	// 1.0 KB (a fingerprint request) and the longest of the five bench
	// workloads 1.5 KB (swarm-cold's chunk_meta for its 528 KiB upgrade).
	// The longest manifest bodies are 4.8 KB and 1.6 KB; a rollout-*
	// manifest is about 190 B. The cap keeps a peer announcing a huge
	// frame or manifest from growing the reader's buffers without limit.
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

// MaxPeerHints caps how many peers the vendor hints per fetch, and so the
// peer lists of PeerFetch and Peer.Failed.
const MaxPeerHints = 3

// maxImageBody bounds a report image's body, as MaxWireChunk bounds a
// chunk's: an image carries whole files, so the frame cap cannot bound
// it. FitImage sends a report whose image is larger without it. A
// variable only so tests can lower it.
var maxImageBody = 1 << 26 // 64MB

// Refusal reasons: the label values of mirage_frames_refused_total.
const (
	RefusedVersion  = "version"
	RefusedTooLarge = "too_large"
	RefusedBadField = "bad_field"
	RefusedTrailing = "trailing"
)

// FrameError is a frame the reader refused. The stream cannot be
// resynchronized after it; callers drop the connection.
type FrameError struct {
	// Reason is RefusedVersion, RefusedTooLarge, RefusedBadField or
	// RefusedTrailing.
	Reason string
	Msg    string
	Err    error // ErrFrameTooLarge for too_large, a decoder's error for bad bodies
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return "link: frame refused (" + e.Reason + "): " + e.Msg + ": " + e.Err.Error()
	}
	return "link: frame refused (" + e.Reason + "): " + e.Msg
}

func (e *FrameError) Unwrap() error { return e.Err }

func refuse(reason string, err error, format string, args ...any) *FrameError {
	if reason == RefusedTooLarge {
		err = ErrFrameTooLarge
	}
	return &FrameError{Reason: reason, Msg: fmt.Sprintf(format, args...), Err: err}
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
	if f.ManifestRef != 0 {
		m |= fManifestRef
	}
	if f.NeedManifest {
		m |= fNeedManifest
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
		return b, fmt.Errorf("link: unknown op %q", f.Op)
	}
	mask := f.fields()
	if extra := mask &^ opFields[op]; extra != 0 {
		return b, fmt.Errorf("link: a %q frame cannot carry fields %#x", f.Op, extra)
	}
	if f.ID < 0 {
		return b, fmt.Errorf("link: frame id %d", f.ID)
	}
	if mask&(fManifest|fManifestRef) == fManifest|fManifestRef {
		return b, fmt.Errorf("link: a %q frame carries a manifest and a reference to one", f.Op)
	}
	b = append(b, frameVersion, op)
	b = binary.AppendUvarint(b, mask)
	if mask&fID != 0 {
		b = binary.AppendUvarint(b, uint64(f.ID))
	}
	if mask&fErr != 0 {
		b = wire.AppendStr(b, f.Err)
	}
	if mask&fStatus != 0 {
		b = wire.AppendStr(b, f.Status)
	}
	if r := f.Register; r != nil {
		b = wire.AppendStr(wire.AppendStr(b, r.Machine), r.Peer)
	}
	if r := f.Identify; r != nil {
		b = wire.AppendStr(b, r.App)
		b = binary.AppendUvarint(b, uint64(len(r.Workloads)))
		for _, w := range r.Workloads {
			b = wire.AppendStrs(b, w)
		}
	}
	if r := f.Record; r != nil {
		b = wire.AppendStrs(wire.AppendStr(b, r.App), r.Inputs)
	}
	if mask&fFingerprint != 0 {
		b = wire.AppendStr(b, f.Fingerprint)
	}
	if r := f.PeerFetch; r != nil {
		b = wire.AppendStrs(wire.AppendAddrs(b, r.Addrs), r.Peers)
	}
	if d := f.Delta; d != nil {
		b = wire.AppendStr(wire.AppendStr(wire.AppendStr(b, d.Machine), d.App), d.AppSet)
		b = binary.LittleEndian.AppendUint64(b, d.Sig)
		b = appendItems(appendItems(b, d.Added), d.Removed)
		b = wire.AppendBool(b, d.Full)
	}
	if mask&fManifest != 0 {
		b = binary.AppendUvarint(b, uint64(manifestLen))
	}
	if mask&fChunkMeta != 0 {
		b = appendChunkRefs(b, f.ChunkMeta)
	}
	if mask&fResources != 0 {
		b = wire.AppendStrs(b, f.Resources)
	}
	if mask&fDiff != 0 {
		b = appendItems(b, f.Diff)
	}
	if mask&fAppSet != 0 {
		b = wire.AppendStr(b, f.AppSet)
	}
	if r := f.Report; r != nil {
		b = wire.AppendStr(wire.AppendStr(b, r.UpgradeID), r.Machine)
		b = wire.AppendBool(b, r.Success)
		b = wire.AppendStrs(wire.AppendStrs(b, r.FailedApps), r.Reasons)
		b = binary.AppendUvarint(b, uint64(imageLen))
	}
	if mask&fNeedChunks != 0 {
		b = wire.AppendAddrs(b, f.NeedChunks)
	}
	if p := f.Peer; p != nil {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(p.Chunks)), p.Bytes)
		b = wire.AppendStrs(b, p.Failed)
	}
	if mask&fManifestRef != 0 {
		b = binary.LittleEndian.AppendUint64(b, f.ManifestRef)
	}
	return b, nil
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
		b = wire.AppendStr(b, it.Key)
		b = binary.LittleEndian.AppendUint64(b, it.Hash)
		b = binary.AppendVarint(b, int64(it.Kind))
	}
	return b
}

// decodeFrame decodes a frame body into f, which must be zero, and returns
// the lengths of the manifest and image bodies that follow it. Strings
// and slices are copied out of b, which the caller may reuse.
func decodeFrame(b []byte, f *Frame) (manifestLen, imageLen int, err error) {
	if len(b) < 2 {
		return 0, 0, refuse(RefusedBadField, nil, "%d-byte frame", len(b))
	}
	if b[0] != frameVersion {
		return 0, 0, refuse(RefusedVersion, nil, "version %d", b[0])
	}
	op := b[1]
	if op >= opCount {
		return 0, 0, refuse(RefusedBadField, nil, "op %d", op)
	}
	f.Op = opNames[op]
	r := newFrameReader(b[2:])
	mask := r.Uvarint()
	if extra := mask &^ opFields[op]; extra != 0 {
		r.Failf("a %q frame cannot carry fields %#x", f.Op, extra)
	}
	if mask&(fManifest|fManifestRef) == fManifest|fManifestRef {
		r.Failf("a manifest and a reference to one")
	}
	if mask&fID != 0 {
		if f.ID = r.Uint(math.MaxInt); f.ID == 0 {
			r.Failf("id 0")
		}
	}
	if mask&fErr != 0 {
		f.Err = r.nonEmptyStr()
	}
	f.OK = mask&fOK != 0
	if mask&fStatus != 0 {
		f.Status = r.nonEmptyStr()
	}
	if mask&fRegister != 0 {
		f.Register = &RegisterReq{Machine: r.Str(), Peer: r.Str()}
	}
	if mask&fIdentify != 0 {
		f.Identify = &IdentifyReq{App: r.Str(), Workloads: wire.List(r.Count(1, maxArgs), func() []string {
			return r.Strs(maxArgs)
		})}
	}
	if mask&fRecord != 0 {
		f.Record = &RecordReq{App: r.Str(), Inputs: r.Strs(maxArgs)}
	}
	if mask&fFingerprint != 0 {
		if fp := r.Bytes(maxFrame); len(fp) > 0 {
			f.Fingerprint = append([]byte(nil), fp...)
		} else {
			r.Failf("empty fingerprint")
		}
	}
	if mask&fPeerFetch != 0 {
		f.PeerFetch = &PeerFetchReq{Addrs: r.Addrs(maxChunkRefs), Peers: r.Strs(MaxPeerHints)}
	}
	if mask&fDelta != 0 {
		f.Delta = &ProfileDeltaReq{Machine: r.Str(), App: r.Str(), AppSet: r.Str(), Sig: r.Addr(),
			Added: r.items(maxItems), Removed: r.items(maxItems), Full: r.Bool()}
	}
	if mask&fManifest != 0 {
		if manifestLen = r.bodyLen(maxFrame, "manifest"); manifestLen == 0 {
			r.Failf("empty manifest body")
		}
	}
	if mask&fChunkMeta != 0 {
		f.ChunkMeta = wire.List(r.Count(9, maxChunkRefs), func() distrib.ChunkRef {
			return distrib.ChunkRef{Hash: r.Addr(), Size: r.Uint(MaxWireChunk)}
		})
		r.nonEmpty(len(f.ChunkMeta))
	}
	if mask&fResources != 0 {
		f.Resources = r.Strs(maxResources)
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
		rep := &report.Report{UpgradeID: r.Str(), Machine: r.Str(),
			Success: r.Bool(), FailedApps: r.Strs(maxReportList), Reasons: r.Strs(maxReportList)}
		imageLen = r.bodyLen(maxImageBody, "image")
		f.Report = rep
	}
	if mask&fNeedChunks != 0 {
		f.NeedChunks = r.Addrs(maxChunkRefs)
		r.nonEmpty(len(f.NeedChunks))
	}
	if mask&fPeer != 0 {
		f.Peer = &PeerResult{Chunks: r.Varint(), Bytes: r.Varint64(), Failed: r.Strs(MaxPeerHints)}
	}
	if mask&fManifestRef != 0 {
		if f.ManifestRef = r.Addr(); f.ManifestRef == 0 {
			r.Failf("manifest reference 0")
		}
	}
	f.NeedManifest = mask&fNeedManifest != 0
	if err := r.refusal("frame"); err != nil {
		return 0, 0, err
	}
	return manifestLen, imageLen, nil
}

// frameReader is a wire.Reader over a frame body, a fingerprint request
// or an image: strings are copied out, since a frame's bytes sit in a
// buffer the next call reuses, and capped at maxWireString. It adds the
// frame grammar's own elements and maps the reader's verdict onto a
// refusal reason.
type frameReader struct{ wire.Reader }

func newFrameReader(b []byte) frameReader {
	return frameReader{wire.NewReader(b, "", maxWireString)}
}

// nonEmpty refuses an empty list in a field whose presence says it is not.
func (r *frameReader) nonEmpty(n int) {
	if n == 0 {
		r.Failf("empty list present")
	}
}

func (r *frameReader) nonEmptyStr() string {
	s := r.Str()
	if s == "" {
		r.Failf("empty string present")
	}
	return s
}

// bodyLen reads the length of a body that follows the frame, refused as
// too large beyond limit.
func (r *frameReader) bodyLen(limit int, what string) int {
	v := r.Uvarint()
	if v > uint64(limit) {
		r.Fail(refuse(RefusedTooLarge, nil, "%s body of %d bytes over its cap %d", what, v, limit))
		return 0
	}
	return int(v)
}

func (r *frameReader) items(limit int) []WireItem {
	return wire.List(r.Count(10, limit), func() WireItem {
		return WireItem{Key: r.Str(), Hash: r.Addr(), Kind: r.Varint()}
	})
}

// refusal maps the reader's verdict on a whole encoding onto a refusal:
// bytes left over are trailing, a body over its cap too_large (bodyLen
// refused it), any other violation a bad field.
func (r *frameReader) refusal(what string) error {
	err := r.Done()
	if err == nil {
		return nil
	}
	if fe, ok := err.(*FrameError); ok {
		return fe
	}
	if errors.Is(err, wire.ErrTrailing) {
		return refuse(RefusedTrailing, err, "%s", what)
	}
	return refuse(RefusedBadField, err, "%s", what)
}

// EncodeFingerprintReq returns req's wire form, the Frame.Fingerprint of
// an OpFingerprint request:
//
//	req  = str(App) count(str Refs) count(rule) count(item VendorItems)
//	rule = str(Match) str(Pattern) varint(Type) str(Parser) count(str IgnoreKeys)
//	item = str(Key) hash:8 varint(Kind)
func EncodeFingerprintReq(req *FingerprintReq) []byte {
	b := wire.AppendStrs(wire.AppendStr(nil, req.App), req.Refs)
	b = binary.AppendUvarint(b, uint64(len(req.Registry.Rules)))
	for _, rule := range req.Registry.Rules {
		b = wire.AppendStr(wire.AppendStr(b, rule.Match), rule.Pattern)
		b = binary.AppendVarint(b, int64(rule.Type))
		b = wire.AppendStrs(wire.AppendStr(b, rule.Parser), rule.IgnoreKeys)
	}
	return appendItems(b, req.VendorItems)
}

// DecodeFingerprintReq parses EncodeFingerprintReq's output.
func DecodeFingerprintReq(b []byte) (*FingerprintReq, error) {
	r := newFrameReader(b)
	req := &FingerprintReq{App: r.Str(), Refs: r.Strs(maxResources)}
	req.Registry.Rules = wire.List(r.Count(5, maxRules), func() parser.RegistryRule {
		return parser.RegistryRule{Match: r.Str(), Pattern: r.Str(), Type: r.Varint(), Parser: r.Str(), IgnoreKeys: r.Strs(maxRules)}
	})
	req.VendorItems = r.items(maxItems)
	if err := r.refusal("fingerprint request"); err != nil {
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

// FitImage drops rep's image when its wire form is over the image cap,
// saying why in the report's reasons: an image past the cap would cost
// the channel, and with it the report.
func FitImage(rep *report.Report) {
	if rep.Image == nil {
		return
	}
	if n := imageWireLen(rep.Image); n > maxImageBody {
		rep.Image = nil
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("report image of %d bytes exceeds the %d-byte cap; sent without it", n, maxImageBody))
	}
}

// imageWireLen returns the length of img's wire form.
func imageWireLen(img *report.Image) int {
	n := wire.StrLen(len(img.MachineName)) + wire.UvarintLen(uint64(len(img.Files))) +
		wire.UvarintLen(uint64(len(img.Env))) + wire.UvarintLen(uint64(len(img.Packages)))
	for _, f := range img.Files {
		n += wire.StrLen(len(f.Path)) + wire.VarintLen(int64(f.Type)) + wire.StrLen(len(f.Version)) + wire.StrLen(len(f.Data))
	}
	for k, v := range img.Env {
		n += wire.StrLen(len(k)) + wire.StrLen(len(v))
	}
	for _, p := range img.Packages {
		n += wire.StrLen(len(p.Name)) + wire.StrLen(len(p.Version)) + wire.UvarintLen(uint64(len(p.Files)))
		for _, f := range p.Files {
			n += wire.StrLen(len(f))
		}
	}
	return n
}

// appendImage appends img's wire form to b.
func appendImage(b []byte, img *report.Image) []byte {
	b = wire.AppendStr(b, img.MachineName)
	b = binary.AppendUvarint(b, uint64(len(img.Files)))
	for _, f := range img.Files {
		b = wire.AppendStr(b, f.Path)
		b = binary.AppendVarint(b, int64(f.Type))
		b = wire.AppendStr(wire.AppendStr(b, f.Version), f.Data)
	}
	keys := make([]string, 0, len(img.Env))
	for k := range img.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendStr(wire.AppendStr(b, k), img.Env[k])
	}
	b = binary.AppendUvarint(b, uint64(len(img.Packages)))
	for _, p := range img.Packages {
		b = wire.AppendStrs(wire.AppendStr(wire.AppendStr(b, p.Name), p.Version), p.Files)
	}
	return b
}

// decodeImage parses appendImage's output. The files' Data slices share
// b, which the image keeps.
func decodeImage(b []byte) (*report.Image, error) {
	r := newFrameReader(b)
	img := &report.Image{MachineName: r.Str()}
	img.Files = wire.List(r.Count(4, maxImageFiles), func() report.FileState {
		f := report.FileState{Path: r.Str(), Type: machine.FileType(r.Varint()), Version: r.Str()}
		if data := r.Bytes(maxImageBody); len(data) > 0 {
			f.Data = data
		}
		return f
	})
	if n := r.Count(2, maxImageEntries); n > 0 {
		img.Env = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			k, v := r.Str(), r.Str()
			if i > 0 && k <= prev {
				r.Failf("environment key %q out of order", k)
			}
			img.Env[k], prev = v, k
		}
	}
	img.Packages = wire.List(r.Count(3, maxImageEntries), func() report.PackageState {
		return report.PackageState{Name: r.Str(), Version: r.Str(), Files: r.Strs(maxImageFiles)}
	})
	if err := r.refusal("image"); err != nil {
		return nil, err
	}
	return img, nil
}
