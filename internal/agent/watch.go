package agent

import (
	"time"

	"repro/internal/link"
	"repro/internal/parser"
	"repro/internal/resource"
)

// Agent watch mode (mirage-agent -watch): periodic local re-fingerprinting
// with delta pushes. After a fingerprint RPC the agent holds everything it
// needs to recompute its diff-against-vendor offline — the registry
// config, the resource refs, the vendor reference items. The watch loop
// re-fingerprints on a timer, compares the diff's signature to the last
// one the vendor acknowledged, and pushes only the changed items over a
// short-lived OpProfileDelta connection. An unchanged machine sends
// nothing; a changed one sends a few hundred bytes (content items are CDC
// chunk digests, so even a rewritten config file is a handful of items).

// watchState is the per-app offline re-fingerprinting state.
type watchState struct {
	registry    parser.RegistryConfig
	refs        []string
	vendorItems []link.WireItem
	// lastDiff/lastSig are the last vendor-acknowledged diff — the base
	// the next delta is computed against.
	lastDiff *resource.Set
	lastSig  uint64
}

// DefaultDeltaTimeout bounds one OpProfileDelta conversation.
const DefaultDeltaTimeout = 10 * time.Second

// Watch re-fingerprints every interval, which must be positive, and
// pushes profile deltas to the vendor at vendorAddr until stop is
// signalled. Push failures are tolerated (the next tick retries); the
// vendor asking for a resync makes the next push a full profile. Run it
// on its own goroutine, next to the control-channel loop.
func (a *Agent) Watch(vendorAddr string, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			a.CheckDrift(vendorAddr)
		}
	}
}

// CheckDrift is one on-demand watch pass: re-fingerprint every app the
// vendor has profiled, push a delta for each whose diff changed, and
// return the number of pushes that were acknowledged. Unchanged apps cost
// no bytes at all.
func (a *Agent) CheckDrift(vendorAddr string) (pushed int, err error) {
	a.watchMu.Lock()
	watched := make(map[string]*watchState, len(a.watch))
	for app, st := range a.watch {
		watched[app] = st
	}
	a.watchMu.Unlock()

	var firstErr error
	for app, st := range watched {
		reg, rerr := parser.BuildRegistry(st.registry)
		if rerr != nil {
			if firstErr == nil {
				firstErr = rerr
			}
			continue
		}
		refs := mergeRefs(st.refs, a.local[app])
		own := parser.NewFingerprinter(reg).Fingerprint(a.M, refs)
		diff := own.Diff(link.ItemsFromWire(st.vendorItems))
		sig := diff.Signature()
		if sig == st.lastSig {
			continue // unchanged machine: nothing on the wire
		}
		var added, removed []resource.Item
		for _, it := range diff.Items() {
			if !st.lastDiff.Contains(it) {
				added = append(added, it)
			}
		}
		for _, it := range st.lastDiff.Items() {
			if !diff.Contains(it) {
				removed = append(removed, it)
			}
		}
		req := &link.ProfileDeltaReq{
			Machine: a.M.Name,
			App:     app,
			AppSet:  a.M.AppSetKey(),
			Sig:     sig,
			Added:   link.ItemsToWire(added),
			Removed: link.ItemsToWire(removed),
		}
		resync, perr := a.pushDelta(vendorAddr, req)
		if resync {
			// Vendor lost our baseline: re-send the complete diff.
			full := &link.ProfileDeltaReq{
				Machine: a.M.Name, App: app, AppSet: a.M.AppSetKey(),
				Sig: sig, Added: link.ItemsToWire(diff.Items()), Full: true,
			}
			_, perr = a.pushDelta(vendorAddr, full)
		}
		if perr != nil {
			if firstErr == nil {
				firstErr = perr
			}
			continue // keep the old base; next tick retries the delta
		}
		a.watchMu.Lock()
		if cur, ok := a.watch[app]; ok && cur == st {
			st.lastDiff = diff
			st.lastSig = sig
		}
		a.watchMu.Unlock()
		pushed++
	}
	return pushed, firstErr
}

// pushDelta sends one OpProfileDelta frame on a short-lived connection to
// the vendor.
func (a *Agent) pushDelta(vendorAddr string, req *link.ProfileDeltaReq) (resync bool, err error) {
	resp, err := exchange(vendorAddr, DefaultDeltaTimeout, &link.Frame{ID: 1, Op: link.OpProfileDelta, Delta: req}, nil)
	return err == nil && resp.Status == link.StatusResync, err
}
