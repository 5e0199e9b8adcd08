package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/apps"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/fingerprint"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Tests for the peer chunk-serving tier: staged rollouts where later
// waves pull upgrade bytes from gated peers, and swarm degradation —
// peers that die mid-fetch, serve corrupt bytes, or refuse connections
// must drop cleanly to the vendor fallback without stalling the rollout.

// bigUpgrade builds an upgrade whose payload is fresh pseudo-random data,
// so no agent's seeded cache holds any of its chunks and every chunk has
// to move — the worst case the swarm exists to absorb.
func bigUpgrade(seed byte, size int) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-swarm-5",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: bigData(seed, size), Version: "5.0.22"},
		}},
		Replaces: "4.1.22",
	}
}

// startSwarmFleet launches a server and n peer-serving agents in one
// cluster (first machine the representative), returning the server and
// machines. Every agent runs a peer chunk server advertised at
// registration.
func startSwarmFleet(t *testing.T, n int) (*Server, []*machine.Machine, []*deploy.Cluster) {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	machines := make([]*machine.Machine, n)
	cl := &deploy.Cluster{ID: "c0", Distance: 1}
	for i := 0; i < n; i++ {
		name := "sw-" + string(rune('a'+i))
		machines[i] = userMachine(name, false)
		agent := agent.NewAgent(machines[i])
		if _, err := agent.ServePeers("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agent.ClosePeers)
		go agent.Run(s.Addr())
		if i == 0 {
			cl.Representatives = append(cl.Representatives, s.Node(name))
		} else {
			cl.Others = append(cl.Others, s.Node(name))
		}
	}
	if got := s.WaitForAgents(n, 5*time.Second); got != n {
		t.Fatalf("only %d/%d agents registered", got, n)
	}
	return s, machines, []*deploy.Cluster{cl}
}

// deploySwarm runs a balanced staged rollout with the peer tier wired the
// way mirage-vendor wires it: gated waves become eligible peer servers.
func deploySwarm(t *testing.T, s *Server, clusters []*deploy.Cluster, up *pkgmgr.Upgrade) *deploy.Outcome {
	t.Helper()
	ctl := deploy.NewController(report.New(), nil)
	ctl.Transfer = s.TransferSnapshot
	ctl.GatedMembers = s.MarkPeerEligible
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, up, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned {
		t.Fatalf("outcome = %+v", out)
	}
	return out
}

// TestSwarmServesLaterWaves is the tier's happy path: the representative
// wave is seeded by the vendor, gates, and the remaining members pull the
// payload from it peer-to-peer; the vendor's own chunk egress stays at
// roughly one copy.
func TestSwarmServesLaterWaves(t *testing.T) {
	const fleet, size = 5, 128 * 1024
	s, machines, clusters := startSwarmFleet(t, fleet)
	up := bigUpgrade(7, size)
	out := deploySwarm(t, s, clusters, up)

	if out.Integrated() != fleet {
		t.Fatalf("integrated %d/%d", out.Integrated(), fleet)
	}
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s after swarm deployment", m.Name, ref.Version)
		}
	}
	if out.Transfer.PeerBytes == 0 || out.Transfer.PeerHits == 0 {
		t.Fatalf("transfer = %+v, want peer traffic", out.Transfer)
	}
	// The vendor pushes the payload to the representative (and any swarm
	// stragglers); the other four members ride the peer tier. Anything
	// under 3 payload copies proves the swarm carried most of the load.
	if out.Transfer.ChunkBytes > 3*size {
		t.Fatalf("vendor pushed %d chunk bytes for a %d-byte payload × %d agents — swarm not engaged",
			out.Transfer.ChunkBytes, size, fleet)
	}
	if out.Transfer.PeerBytes < size {
		t.Fatalf("peer tier served %d bytes, want at least one payload copy (%d)",
			out.Transfer.PeerBytes, size)
	}
}

// fakePeer runs a TCP server speaking just enough of the peer protocol to
// misbehave on demand: serve reads one peer_get frame and gets the
// requested addresses plus the frame connection to answer on.
func fakePeer(t *testing.T, serve func(fc *link.Conn, bw *bufio.Writer, req link.Frame)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				bw := bufio.NewWriter(conn)
				fc := &link.Conn{R: bufio.NewReader(conn), W: bw, Raw: conn}
				var req link.Frame
				if err := fc.ReadFrame(&req); err != nil {
					return
				}
				serve(fc, bw, req)
			}()
		}
	}()
	return ln.Addr().String()
}

// peerSource registers a channel for name on s that advertises a peer
// server at addr, and books it as a gated agent holding addrs: the
// vendor hints it like any agent whose wave gated. The channel stays
// registered, answering nothing, until the test ends.
func peerSource(t *testing.T, s *Server, name, addr string, addrs []uint64) {
	t.Helper()
	agentEnd, vendorEnd := net.Pipe()
	t.Cleanup(func() { agentEnd.Close() })
	if err := s.ServeConn(vendorEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := agentEnd.Write(wireBytes(t, &link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: name, Peer: addr}})); err != nil {
		t.Fatal(err)
	}
	if !s.WaitForAgent(name, 5*time.Second) {
		t.Fatalf("peer source %s never registered", name)
	}
	s.MarkPeerEligible([]string{name})
	s.peerMu.Lock()
	s.peers.markHeld(name, addrs)
	s.peerMu.Unlock()
}

// upgradeAddrs resolves the distinct chunk addresses of up in the
// server's store, as a fake peer's advertised holdings.
func upgradeAddrs(s *Server, up *pkgmgr.Upgrade) []uint64 {
	return s.ChunkStore().Manifest(up).Addrs()
}

// TestCorruptPeerFallsBackToVendor: a hinted peer serves bytes whose
// digest does not match the requested address. The agent must reject
// every chunk, drop the peer, and let the vendor push — the rollout
// converges and the corruption is visible only as fallback accounting.
func TestCorruptPeerFallsBackToVendor(t *testing.T) {
	m := userMachine("corrupt-target", false)
	s, _ := startFleet(t, m)
	up := bigUpgrade(3, 64*1024)
	addrs := upgradeAddrs(s, up)

	evil := fakePeer(t, func(fc *link.Conn, bw *bufio.Writer, req link.Frame) {
		chunks, err := s.dist.Chunks(req.NeedChunks)
		if err != nil {
			return
		}
		for i := range chunks {
			// Copy before corrupting: the store owns the real bytes.
			data := append([]byte(nil), chunks[i].Data...)
			data[0] ^= 0xff
			chunks[i].Data = data
		}
		fc.WriteFrame(&link.Frame{ID: req.ID, OK: true, ChunkMeta: link.ChunkMeta(chunks)})
		fc.WriteChunkBody(chunks)
		bw.Flush()
	})
	peerSource(t, s, "evil", evil, addrs)

	rep, err := s.Node("corrupt-target").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	st := s.TransferSnapshot()
	if st.VendorFallbacks == 0 {
		t.Fatalf("stats = %+v, want vendor fallbacks after corrupt peer", st)
	}
	if st.PeerBytes != 0 || st.PeerHits != 0 {
		t.Fatalf("stats = %+v: corrupt chunks were credited as peer traffic", st)
	}
}

// TestPeerDiesMidFetch: a hinted peer announces a chunk body and closes
// the connection partway through it. The agent must abandon the peer and
// recover via the vendor push.
func TestPeerDiesMidFetch(t *testing.T) {
	m := userMachine("dying-target", false)
	s, _ := startFleet(t, m)
	up := bigUpgrade(5, 64*1024)
	addrs := upgradeAddrs(s, up)

	dying := fakePeer(t, func(fc *link.Conn, bw *bufio.Writer, req link.Frame) {
		chunks, err := s.dist.Chunks(req.NeedChunks)
		if err != nil {
			return
		}
		fc.WriteFrame(&link.Frame{ID: req.ID, OK: true, ChunkMeta: link.ChunkMeta(chunks)})
		// First chunk only, then half of the second: the body dies mid-read.
		bw.Write(chunks[0].Data)
		if len(chunks) > 1 {
			bw.Write(chunks[1].Data[:len(chunks[1].Data)/2])
		}
		bw.Flush()
		// Returning closes the connection (deferred in fakePeer).
	})
	peerSource(t, s, "dying", dying, addrs)

	rep, err := s.Node("dying-target").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	st := s.TransferSnapshot()
	if st.VendorFallbacks == 0 {
		t.Fatalf("stats = %+v, want vendor fallbacks after dead peer", st)
	}
	// The one complete chunk that verified before the death is kept — the
	// whole point of per-chunk digests — and counted.
	if st.PeerHits != 1 {
		t.Fatalf("stats = %+v, want exactly the one pre-death chunk credited", st)
	}
}

// TestUnreachablePeerFallsBack: the hinted peer's port refuses
// connections outright.
func TestUnreachablePeerFallsBack(t *testing.T) {
	m := userMachine("refused-target", false)
	s, _ := startFleet(t, m)
	up := bigUpgrade(9, 32*1024)
	addrs := upgradeAddrs(s, up)

	// Bind and immediately close a port to get a refusing address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	peerSource(t, s, "vanished", dead, addrs)

	rep, err := s.Node("refused-target").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	st := s.TransferSnapshot()
	if st.VendorFallbacks == 0 || st.PeerBytes != 0 {
		t.Fatalf("stats = %+v, want pure vendor fallback", st)
	}
	if ref, _ := m.Package("mysql"); ref.Version != "4.1.22" {
		t.Fatalf("test mutated the machine: %s", ref.Version)
	}
}

// TestImpossiblePeerReportBooksNothing plays an agent by hand on a
// net.Pipe and answers the vendor's peer_fetch with numbers the request
// itself rules out: negative bytes, more chunks than were asked for. The
// report is the agent's word, so none of it may reach a counter — a
// Prometheus counter must never decrease — and the push must converge
// through the vendor fallback as if the peer tier had served nothing.
func TestImpossiblePeerReportBooksNothing(t *testing.T) {
	lies := map[string]func(asked int) *link.PeerResult{
		"negative bytes":         func(int) *link.PeerResult { return &link.PeerResult{Bytes: -1000000000000, Chunks: 1} },
		"more chunks than asked": func(asked int) *link.PeerResult { return &link.PeerResult{Bytes: 4096, Chunks: asked + 1} },
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			s, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			s.Telemetry = telemetry.NewRegistry()
			up := bigUpgrade(7, 64*1024)
			// A hint must exist for the vendor to ask at all; nobody dials it.
			peerSource(t, s, "hinted", "127.0.0.1:1", upgradeAddrs(s, up))

			vendorEnd, agentEnd := net.Pipe()
			if err := s.ServeConn(vendorEnd); err != nil {
				t.Fatal(err)
			}
			go playLyingAgent(agentEnd, lie)
			if !s.WaitForAgent("liar", 5*time.Second) {
				t.Fatal("hand-played agent did not register")
			}

			rep, err := s.Node("liar").TestUpgrade(context.Background(), up)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Success {
				t.Fatalf("test failed: %+v", rep)
			}
			if st := s.TransferSnapshot(); st.PeerBytes != 0 || st.PeerHits != 0 ||
				st.VendorFallbacks == 0 || st.ChunkBytes != 64*1024 {
				t.Fatalf("stats = %+v, want no peer traffic booked and the whole payload pushed as vendor fallback", st)
			}
			var b strings.Builder
			s.Telemetry.WritePrometheus(&b)
			for _, want := range []string{"mirage_peer_bytes_total 0\n", "mirage_peer_hits_total 0\n"} {
				if !strings.Contains(b.String(), want) {
					t.Fatalf("scrape missing %q:\n%s", want, b.String())
				}
			}
		})
	}
}

// playLyingAgent is the agent side of a control channel played by hand:
// it registers as "liar", claims to hold no chunk until one fetch_chunks
// push arrived, and answers every peer_fetch with lie(asked) as its peer
// result and the full request still missing.
func playLyingAgent(conn net.Conn, lie func(asked int) *link.PeerResult) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fc := &link.Conn{R: bufio.NewReader(conn), W: bw, Raw: conn}
	out := link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: "liar"}}
	pushed := false
	for {
		if fc.WriteFrame(&out) != nil || bw.Flush() != nil {
			return
		}
		var req link.Frame
		if fc.ReadFrame(&req) != nil {
			return
		}
		out = link.Frame{ID: req.ID, OK: true}
		switch req.Op {
		case link.OpTest:
			if pushed {
				out.Report = &report.Report{Machine: "liar", Success: true}
			} else {
				out.NeedChunks = req.Manifest.Addrs()
			}
		case link.OpPeerFetch:
			out.NeedChunks = req.PeerFetch.Addrs
			// Through the codec, as a real reply arrives: the wire form
			// admits these values, so the vendor must bound them itself.
			out.Peer = lie(len(out.NeedChunks))
		case link.OpFetchChunks:
			if fc.ReadChunkBody(req.ChunkMeta, func(uint64, []byte) error { return nil }) != nil {
				return
			}
			pushed = true
		}
	}
}

// TestPeerIndexHints pins the hint policy: coverage-ranked, requester
// excluded, capped at MaxPeerHints, deterministic tie-break.
func TestPeerIndexHints(t *testing.T) {
	pi := newPeerIndex()
	pi.markEligible([]string{"a", "b", "c", "d", "e"})
	live := func(name string) string { return name + ":1" }
	pi.markHeld("a", []uint64{1, 2, 3})
	pi.markHeld("b", []uint64{1, 2})
	pi.markHeld("c", []uint64{1})
	pi.markHeld("d", []uint64{1})
	pi.markHeld("e", []uint64{9})

	got := pi.hints("z", []uint64{1, 2, 3}, live)
	want := []string{"a:1", "b:1", "c:1"} // e covers nothing, d loses the tie-break cut
	if len(got) != len(want) {
		t.Fatalf("hints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hints = %v, want %v", got, want)
		}
	}
	// The requester never appears in its own hints.
	for _, h := range pi.hints("a", []uint64{1, 2, 3}, live) {
		if h == "a:1" {
			t.Fatal("requester hinted to itself")
		}
	}
	// Ineligible agents are invisible no matter their coverage.
	pi.eligible = slices.DeleteFunc(pi.eligible, func(n string) bool { return n == "a" })
	for _, h := range pi.hints("z", []uint64{1, 2, 3}, live) {
		if h == "a:1" {
			t.Fatal("ineligible agent hinted")
		}
	}
}

// TestPeerIndexHintsSkipsNonServing: a fleet whose agents serve no peers
// gets no hints, and hints resolves each agent's address before counting
// its held set, so the answer costs the same whether the sets are large or
// the need is empty. Counting 200 sets against a 16k-address need would
// take three million lookups.
func TestPeerIndexHintsSkipsNonServing(t *testing.T) {
	const agents, size = 200, 1 << 14
	need := make([]uint64, size)
	held := make(map[uint64]bool, size)
	for i := range need {
		need[i] = uint64(i)
		held[uint64(i)] = true
	}
	pi := newPeerIndex()
	for i := 0; i < agents; i++ {
		name := fmt.Sprintf("a%03d", i)
		pi.markEligible([]string{name})
		pi.held[name] = held
	}
	resolved := 0
	live := func(string) string { resolved++; return "" }
	fastest := func(need []uint64) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if got := pi.hints("z", need, live); len(got) != 0 {
				t.Fatalf("hints = %v, want none from agents that serve no peers", got)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	if empty, full := fastest(nil), fastest(need); full > 10*empty+time.Millisecond {
		t.Fatalf("hints took %v against a %d-address need and %v against none: it counted held sets of agents that serve no peers",
			full, size, empty)
	}
	if resolved != 10*agents {
		t.Fatalf("live resolved %d names, want %d", resolved, 10*agents)
	}
}

// TestPeerIndexForgetsDeadAgent: an agent's peer address lives and dies
// with its registered channel. A gated, chunk-holding agent is hinted;
// once the vendor has dropped it, requesters are no longer sent to dial
// it; when it redials it serves again — held and eligible were kept —
// and a redial that advertises no peer server is not hinted. A superseded
// channel's late death leaves its successor's address alone, and another
// peer's channel is untouched throughout.
func TestPeerIndexForgetsDeadAgent(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	agent := agent.NewAgent(userMachine("pf-server", false))
	if _, err := agent.ServePeers("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.ClosePeers)

	// session registers the agent on a fresh pipe and returns its end of
	// it plus the vendor's new channel.
	session := func(prev *agentConn) (net.Conn, *agentConn) {
		t.Helper()
		vendorEnd, agentEnd := net.Pipe()
		if err := s.ServeConn(vendorEnd); err != nil {
			t.Fatal(err)
		}
		go agent.ServeConn(agentEnd)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if ac, ok := s.registry.Get("pf-server"); ok && ac != prev {
				return agentEnd, ac
			}
		}
		t.Fatal("agent never (re-)registered")
		return nil, nil
	}
	need := []uint64{11, 12, 13}
	hinted := func(want ...string) {
		t.Helper()
		got := s.peerHintsFor("pf-requester", need)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("hints = %v, want %v", got, want)
		}
	}

	peerSource(t, s, "mirror", "mirror:1", need[:1])
	conn, first := session(nil)
	s.MarkPeerEligible([]string{"pf-server"})
	s.peerMu.Lock()
	s.peers.markHeld("pf-server", need)
	s.peerMu.Unlock()
	hinted(agent.PeerAddr, "mirror:1")

	// The agent dies; the vendor finds out on its next call.
	conn.Close()
	if err := s.Ping(context.Background(), "pf-server"); err == nil {
		t.Fatal("ping of a dead agent succeeded")
	}
	hinted("mirror:1")

	// It redials: hinted again, nothing had to be re-learned.
	_, second := session(first)
	hinted(agent.PeerAddr, "mirror:1")

	// A third session supersedes the second; the second's death throes
	// arrive late and must not take the successor's address with them.
	_, third := session(second)
	second.fail(context.Background(), "ping", errors.New("late read error")) //nolint:errcheck — only the side effect matters
	hinted(agent.PeerAddr, "mirror:1")

	// Administrative drop forgets it too; so does a redial that no longer
	// serves peers.
	if !s.DropAgent("pf-server") {
		t.Fatal("DropAgent found no channel")
	}
	hinted("mirror:1")
	agent.PeerAddr = ""
	session(third)
	hinted("mirror:1")
}

// exhaustiveHints is the hint ranking as a full scan: count every eligible
// agent's coverage, sort by coverage and then name, keep the first
// MaxPeerHints. peerIndex.hints must agree with it on every input.
func exhaustiveHints(pi *peerIndex, requester string, need []uint64, live func(string) string) []string {
	type cand struct {
		name, addr string
		cover      int
	}
	var cands []cand
	for _, name := range pi.eligible {
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
		if cover > 0 {
			cands = append(cands, cand{name, addr, cover})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cover != cands[j].cover {
			return cands[i].cover > cands[j].cover
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > link.MaxPeerHints {
		cands = cands[:link.MaxPeerHints]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.addr
	}
	return out
}

// TestPeerIndexHintsMatchesExhaustive draws random indexes — held sets
// (some empty), eligibility marked in batches with repeats, agents with a
// source address, a live one, both or none, any requester, and needs that
// are empty, full, partial or repeat addresses — and requires hints to
// equal the exhaustive ranking on every one, and the eligible list to
// stay sorted and distinct.
func TestPeerIndexHintsMatchesExhaustive(t *testing.T) {
	const addrSpace = 8
	rng := rand.New(rand.NewSource(34))
	name := func() string { return fmt.Sprintf("n%02d", rng.Intn(20)) }
	for iter := 0; iter < 1000; iter++ {
		pi := newPeerIndex()
		liveAddr := make(map[string]string)
		marked := make(map[string]bool)
		for i, n := 0, rng.Intn(12); i < n; i++ {
			agent := name()
			if rng.Intn(4) > 0 {
				liveAddr[agent] = agent + ":live"
			}
			if rng.Intn(5) > 0 {
				var held []uint64
				for a := uint64(0); a < addrSpace; a++ {
					if rng.Intn(2) == 0 {
						held = append(held, a)
					}
				}
				pi.markHeld(agent, held)
			}
			if rng.Intn(4) > 0 {
				batch := []string{agent}
				for j := rng.Intn(3); j > 0; j-- {
					batch = append(batch, name(), agent)
				}
				pi.markEligible(batch)
				for _, b := range batch {
					marked[b] = true
				}
			}
		}
		if !slices.IsSorted(pi.eligible) || len(slices.Compact(slices.Clone(pi.eligible))) != len(pi.eligible) ||
			len(pi.eligible) != len(marked) {
			t.Fatalf("iteration %d: eligible = %v, want the %d marked names sorted and distinct", iter, pi.eligible, len(marked))
		}
		var need []uint64
		switch rng.Intn(4) {
		case 0: // empty
		case 1:
			for a := uint64(0); a < addrSpace; a++ {
				need = append(need, a)
			}
		default:
			for j := rng.Intn(2 * addrSpace); j > 0; j-- {
				need = append(need, uint64(rng.Intn(addrSpace)))
			}
		}
		requester := name()
		live := func(n string) string { return liveAddr[n] }
		got, want := pi.hints(requester, need, live), exhaustiveHints(pi, requester, need, live)
		if !slices.Equal(got, want) {
			t.Fatalf("iteration %d: hints(%s, %v) = %v, want %v (eligible %v)", iter, requester, need, got, want, pi.eligible)
		}
	}
}

// TestPeerIndexHintsStopsAtFullCover: in a fleet where every eligible
// agent holds the whole need, hints consults the first MaxPeerHints
// agents in name order and stops — it does not count 10,000 held sets to
// keep three of them.
func TestPeerIndexHintsStopsAtFullCover(t *testing.T) {
	const agents = 10_000
	need := []uint64{1, 2, 3, 4}
	pi := newPeerIndex()
	names := make([]string, agents)
	for i := range names {
		names[i] = fmt.Sprintf("a%05d", i)
		pi.markHeld(names[i], need)
	}
	rand.New(rand.NewSource(1)).Shuffle(agents, func(i, j int) { names[i], names[j] = names[j], names[i] })
	for len(names) > 0 {
		n := min(len(names), 1000)
		pi.markEligible(names[:n])
		names = names[n:]
	}
	calls := 0
	live := func(name string) string { calls++; return name + ":1" }
	got := pi.hints("a00001", need, live)
	if want := []string{"a00000:1", "a00002:1", "a00003:1"}; !slices.Equal(got, want) {
		t.Fatalf("hints = %v, want %v", got, want)
	}
	if calls > link.MaxPeerHints+1 {
		t.Fatalf("live consulted %d times for %d full holders, want at most %d", calls, agents, link.MaxPeerHints+1)
	}
}

// TestPeerServesDuplicateChunk: a hinted peer answers a request for [a, b]
// with a twice. Each delivery consumes its request, so the repeat is an
// unrequested chunk: the peer is dropped, a (which verified) is credited
// once, and b is left for the vendor's push.
func TestPeerServesDuplicateChunk(t *testing.T) {
	a := distrib.Chunk{Data: bigData(1, 3000)}
	b := distrib.Chunk{Data: bigData(2, 3000)}
	a.Hash, b.Hash = fingerprint.HashBytes(a.Data), fingerprint.HashBytes(b.Data)
	peer := fakePeer(t, func(fc *link.Conn, bw *bufio.Writer, req link.Frame) {
		twice := []distrib.Chunk{a, a}
		fc.WriteFrame(&link.Frame{ID: req.ID, OK: true, ChunkMeta: link.ChunkMeta(twice)})
		fc.WriteChunkBody(twice)
		bw.Flush()
	})
	// Play the vendor by hand: read the registration, direct the fetch.
	target := agent.NewAgent(userMachine("dup-target", false))
	vendorEnd, agentEnd := net.Pipe()
	defer vendorEnd.Close()
	go target.ServeConn(agentEnd)
	vendorEnd.SetDeadline(time.Now().Add(10 * time.Second))
	fc := &link.Conn{R: bufio.NewReader(vendorEnd), W: bufio.NewWriter(vendorEnd), Raw: vendorEnd}
	var resp link.Frame
	if err := fc.ReadFrame(&resp); err != nil {
		t.Fatal(err)
	}
	fetch := &link.Frame{ID: 1, Op: link.OpPeerFetch, PeerFetch: &link.PeerFetchReq{Addrs: []uint64{a.Hash, b.Hash}, Peers: []string{peer}}}
	if err := fc.WriteFrame(fetch); err != nil {
		t.Fatal(err)
	}
	if err := fc.W.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fc.ReadFrame(&resp); err != nil || resp.Peer == nil {
		t.Fatalf("peer_fetch reply %+v: %v", resp, err)
	}
	if res := resp.Peer; res.Chunks != 1 || res.Bytes != int64(len(a.Data)) || !slices.Equal(res.Failed, []string{peer}) {
		t.Fatalf("peer result = %+v, want a credited once and %s dropped", res, peer)
	}
	if !slices.Equal(resp.NeedChunks, []uint64{b.Hash}) {
		t.Fatalf("left for the vendor: %v, want [b] = [%d]", resp.NeedChunks, b.Hash)
	}
	if got := target.Cache.Chunks([]uint64{a.Hash}); len(got) != 1 {
		t.Fatal("the verified chunk a was not kept")
	}
}
