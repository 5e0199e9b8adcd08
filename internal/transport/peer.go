package transport

import (
	"slices"

	"repro/internal/link"
)

// peerIndex is the vendor-side chunk-location index of the peer
// chunk-serving tier (agent.ServePeers): which agents hold which chunk
// addresses and which are cleared to serve (their waves gated). It is fed
// by transfer bookkeeping — a manifest that resolved marks its addresses
// held — so no extra RPC ever maintains it. Where an agent serves from is
// not kept here but on its registered channel (agentConn.peer), so held
// and eligible survive a disconnect — the agent serves again once it
// redials — while its address does not.
type peerIndex struct {
	held     map[string]map[uint64]bool // agent name → chunk addresses known held
	eligible []string                   // names cleared to serve (gated waves), sorted, distinct
}

func newPeerIndex() *peerIndex {
	return &peerIndex{held: make(map[string]map[uint64]bool)}
}

// markEligible merges names into the sorted eligible list in place: the
// new names are sorted and merged in from the back, so a wave costs one
// pass over the list, and a wave whose names are all eligible already (a
// later rollout over the same fleet) allocates nothing.
func (pi *peerIndex) markEligible(names []string) {
	var add []string
	for _, n := range names {
		if _, found := slices.BinarySearch(pi.eligible, n); !found {
			add = append(add, n)
		}
	}
	slices.Sort(add)
	add = slices.Compact(add)
	i, j := len(pi.eligible)-1, len(add)-1
	pi.eligible = slices.Grow(pi.eligible, len(add))[:len(pi.eligible)+len(add)]
	for k := len(pi.eligible) - 1; j >= 0; k-- {
		if i >= 0 && pi.eligible[i] > add[j] {
			pi.eligible[k] = pi.eligible[i]
			i--
		} else {
			pi.eligible[k] = add[j]
			j--
		}
	}
}

// hints returns up to link.MaxPeerHints peer addresses for need, best
// coverage first (ties broken by name for determinism), excluding
// requester. live resolves a currently registered agent to the peer
// address its channel advertised ("" when it is gone or serves none). An
// agent with no address is skipped before its held set is counted.
//
// Agents are visited in name order, so an agent ties with every earlier
// one it matches and loses the tie. Once MaxPeerHints candidates cover
// all of need, no later agent can enter the result, and the scan stops:
// a fleet of full holders costs MaxPeerHints held-set counts, not one per
// agent.
func (pi *peerIndex) hints(requester string, need []uint64, live func(name string) string) []string {
	type cand struct {
		addr  string
		cover int
	}
	best := make([]cand, 0, link.MaxPeerHints) // best coverage first
	for _, name := range pi.eligible {
		if len(best) == link.MaxPeerHints && best[link.MaxPeerHints-1].cover == len(need) {
			break
		}
		held := pi.held[name]
		if name == requester || len(held) == 0 {
			continue
		}
		addr := live(name)
		if addr == "" {
			continue
		}
		cover := 0
		for _, a := range need {
			if held[a] {
				cover++
			}
		}
		// Insert behind every candidate covering at least as much.
		i := len(best)
		for i > 0 && best[i-1].cover < cover {
			i--
		}
		if cover == 0 || i == link.MaxPeerHints {
			continue
		}
		if len(best) < link.MaxPeerHints {
			best = append(best, cand{})
		}
		copy(best[i+1:], best[i:])
		best[i] = cand{addr, cover}
	}
	out := make([]string, len(best))
	for i, c := range best {
		out[i] = c.addr
	}
	return out
}

// markHeld records that name holds every address in refs.
func (pi *peerIndex) markHeld(name string, refs []uint64) {
	set := pi.held[name]
	if set == nil {
		set = make(map[uint64]bool, len(refs))
		pi.held[name] = set
	}
	for _, a := range refs {
		set[a] = true
	}
}
