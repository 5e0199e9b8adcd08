// Package transport makes Mirage distributed: a vendor-side TCP server, a
// user-machine agent, and a JSON wire protocol carrying fingerprint
// exchanges, upgrade pushes, validation commands and problem reports.
//
// Agents dial the vendor and keep a persistent control channel open (the
// usual arrangement for fleet management behind NAT); all subsequent RPCs
// are vendor-initiated over that channel. Remote agents appear to the
// deployment controller as deploy.Node values, so the staged protocols
// need know nothing of the wire.
//
// Wire format: newline-delimited JSON frames. JSON string escaping
// guarantees no raw newline appears inside a frame.
package transport

import (
	"encoding/json"

	"repro/internal/distrib"
	"repro/internal/report"
	"repro/internal/resource"
)

// Frame is one message on the wire. Requests carry Op and a payload field;
// responses echo ID and fill Err or a payload field.
type Frame struct {
	ID int    `json:"id"`
	Op string `json:"op,omitempty"`
	// Err is set on failed responses.
	Err string `json:"err,omitempty"`

	// Request payloads. Fingerprint is kept as raw JSON because its body
	// — the vendor item list and registry — is identical for every agent
	// of a profiling fan-out: the server serializes it once per collection
	// and reuses the bytes across the fleet.
	Register    *RegisterReq     `json:"register,omitempty"`
	Identify    *IdentifyReq     `json:"identify,omitempty"`
	Record      *RecordReq       `json:"record,omitempty"`
	Fingerprint json.RawMessage  `json:"fingerprint,omitempty"`
	Test        *TestReq         `json:"test,omitempty"`
	Integrate   *IntegrateReq    `json:"integrate,omitempty"`
	PeerFetch   *PeerFetchReq    `json:"peer_fetch,omitempty"`
	Delta       *ProfileDeltaReq `json:"delta,omitempty"`

	// ChunkMeta announces a binary chunk body: immediately after this
	// frame's newline follow the raw bytes of each listed chunk, in
	// order, ref.Size bytes each — no base64, no per-chunk framing. Used
	// by every OpFetchChunks push and every OpPeerGet response.
	ChunkMeta []distrib.ChunkRef `json:"chunk_meta,omitempty"`

	// Response payloads.
	Resources []string       `json:"resources,omitempty"`
	Diff      []WireItem     `json:"diff,omitempty"`
	AppSet    string         `json:"appset,omitempty"`
	Report    *report.Report `json:"report,omitempty"`
	// NeedChunks is the agent's reply to a manifest-bearing test or
	// integrate request whose chunks are not all cached yet: the missing
	// content addresses. The vendor answers with an OpFetchChunks push and
	// then re-issues the original request, which by then resolves locally.
	NeedChunks []uint64 `json:"need_chunks,omitempty"`
	// Peer is the agent's report of an OpPeerFetch round: how much the
	// peer tier served (and which peers were dropped), so the vendor's
	// transfer counters see bytes it never itself moved.
	Peer *PeerResult `json:"peer,omitempty"`
	// OK acknowledges a successful response. Deliberately NOT omitempty:
	// with omitempty a false value serialized identically to an absent
	// one, so a handler that forgot to acknowledge was indistinguishable
	// from a malformed or truncated reply. The vendor rejects replies
	// with neither Err nor OK set.
	OK     bool   `json:"ok"`
	Status string `json:"status,omitempty"`
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
	// chunk frame (ChunkMeta header + raw bytes); content addresses make
	// the transfer self-verifying, so a peer needs no trust beyond the
	// digest check every fetched chunk already passes.
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
	Machine string `json:"machine"`
	// Peer, when non-empty, advertises the address of the agent's peer
	// chunk server (Agent.ServePeers): the vendor may hint this agent to
	// others once its waves gate.
	Peer string `json:"peer,omitempty"`
}

// IdentifyReq asks the agent to run local resource identification for app
// over the given workloads.
type IdentifyReq struct {
	App       string     `json:"app"`
	Workloads [][]string `json:"workloads"`
}

// RecordReq asks the agent to record a baseline trace of app.
type RecordReq struct {
	App    string   `json:"app"`
	Inputs []string `json:"inputs"`
}

// FingerprintReq carries the vendor's resource references, registry
// configuration and reference item list; the agent answers with the item
// diff and its application-set key.
type FingerprintReq struct {
	App         string         `json:"app"`
	Refs        []string       `json:"refs"`
	Registry    RegistryConfig `json:"registry"`
	VendorItems []WireItem     `json:"vendor_items"`
}

// WireManifest is the content-addressed form of an upgrade: metadata plus
// per-file chunk address lists, no file data. It is the distrib manifest
// verbatim — the distribution layer owns the format.
type WireManifest = distrib.Manifest

// TestReq asks the agent to validate the upgrade in isolation. The
// upgrade travels as its manifest; chunks the agent lacks follow in an
// OpFetchChunks push.
type TestReq struct {
	Manifest *WireManifest `json:"manifest,omitempty"`
}

// IntegrateReq asks the agent to apply the validated upgrade, named by
// manifest like TestReq.
type IntegrateReq struct {
	Manifest *WireManifest `json:"manifest,omitempty"`
}

// PeerFetchReq directs an agent to pull chunk addresses from peers, in
// hint order. The vendor pre-filters Peers to gated-wave members whose
// chunk-location index entries cover some of Addrs, so the agent tries
// them blindly and reports what remains.
type PeerFetchReq struct {
	Addrs []uint64 `json:"addrs"`
	Peers []string `json:"peers"`
}

// PeerResult books one OpPeerFetch round from the agent's side.
type PeerResult struct {
	// Chunks and Bytes total what the peer tier delivered.
	Chunks int   `json:"chunks,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	// Failed lists peers dropped mid-fetch: dead, unreachable, or
	// serving bytes whose digest did not match the requested address.
	Failed []string `json:"failed,omitempty"`
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

// ItemsToWire serializes an item set.
func ItemsToWire(s *resource.Set) []WireItem {
	items := s.Items()
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
	Match   string `json:"match"`
	Pattern string `json:"pattern,omitempty"` // for path/glob
	Type    int    `json:"type,omitempty"`    // for type matches
	// Parser is "executable", "sharedlib", "text", "config" or "binary".
	Parser     string   `json:"parser"`
	IgnoreKeys []string `json:"ignore_keys,omitempty"` // config parser option
}

// RegistryConfig is the serialized parser registry.
type RegistryConfig struct {
	Rules []RegistryRule `json:"rules"`
}
