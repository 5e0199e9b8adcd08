package transport_test

import (
	"context"
	"hash/fnv"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// FaultPlan is a seeded fault schedule for the vendor↔agent links:
// per-request rates, a total budget and per-agent crash points. Each
// agent draws from its own PRNG stream, derived from Seed and its name,
// so the same plan over the same per-agent request sequence injects the
// same faults however goroutines interleave — which is what lets a chaos
// test assert an exact terminal state.
type FaultPlan struct {
	Seed uint64

	// Rates in [0,1], one draw per request. Drop closes the link before
	// the request leaves: the agent never sees the call. Delay holds it
	// DelayBy (default 2ms) first. Corrupt flips one byte of an
	// OpFetchChunks body, which the agent's content check rejects; on
	// other ops the draw is spent and nothing is injected. Reset delivers
	// the request and closes the link on the vendor's read of the reply:
	// work done but never acknowledged.
	Drop, Delay, Corrupt, Reset float64
	DelayBy                     time.Duration

	// MaxFaults caps the faults injected, crashes included (0 = no cap),
	// so the storm subsides and the rollout can finish. Crash points
	// fire whatever is left of it.
	MaxFaults int

	// Agents, when set, limits the rate-driven faults to the named
	// agents; every other link draws nothing.
	Agents []string

	// Crashes tear an agent's link down once, at the agent's AfterCalls-th
	// request (1-based); with reconnect on, the agent comes back.
	Crashes []CrashSpec
}

// CrashSpec schedules one agent crash.
type CrashSpec struct {
	Agent      string
	AfterCalls int
}

// FaultKind classifies what the injector decided for one request.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultDrop
	FaultDelay
	FaultCorrupt
	FaultReset
	FaultCrash
	faultKinds
)

// FaultCounts is how many faults of each kind fired.
type FaultCounts [faultKinds]int64

// Total is every fault fired, crashes included.
func (c FaultCounts) Total() (n int64) {
	for _, v := range c {
		n += v
	}
	return n
}

// faultInjector is an active intruder on the vendor↔agent links: it
// wraps the vendor end of each agent's connection (wrap) and evaluates
// its FaultPlan request by request. Its per-agent state lives across
// reconnections. The vendor under test is the one that ships; it only
// ever sees a misbehaving connection.
type faultInjector struct {
	plan  FaultPlan
	armed atomic.Bool // until set, links pass traffic untouched and count nothing
	fired [faultKinds]atomic.Int64

	mu     sync.Mutex
	agents map[string]*agentFaults
}

type agentFaults struct {
	rng   uint64
	calls int
}

func newFaultInjector(plan FaultPlan) *faultInjector {
	if plan.DelayBy <= 0 {
		plan.DelayBy = 2 * time.Millisecond
	}
	return &faultInjector{plan: plan, agents: make(map[string]*agentFaults)}
}

func (fi *faultInjector) counts() FaultCounts {
	var c FaultCounts
	for k := range c {
		c[k] = fi.fired[k].Load()
	}
	return c
}

// next decides the fault, if any, for the named agent's next request.
func (fi *faultInjector) next(agent, op string) FaultKind {
	fi.mu.Lock()
	st, ok := fi.agents[agent]
	if !ok {
		st = &agentFaults{rng: faultSeed(fi.plan.Seed, agent)}
		fi.agents[agent] = st
	}
	st.calls++
	if slices.Contains(fi.plan.Crashes, CrashSpec{agent, st.calls}) {
		fi.mu.Unlock()
		fi.fired[FaultCrash].Add(1)
		return FaultCrash
	}
	if len(fi.plan.Agents) > 0 && !slices.Contains(fi.plan.Agents, agent) {
		fi.mu.Unlock()
		return FaultNone
	}
	p := frand(&st.rng)
	fi.mu.Unlock()

	if fi.plan.MaxFaults > 0 && fi.counts().Total() >= int64(fi.plan.MaxFaults) {
		return FaultNone
	}
	kind := FaultNone
	switch pl := fi.plan; {
	case p < pl.Drop:
		kind = FaultDrop
	case p < pl.Drop+pl.Delay:
		kind = FaultDelay
	case p < pl.Drop+pl.Delay+pl.Corrupt:
		if op == transport.OpFetchChunks {
			kind = FaultCorrupt
		}
	case p < pl.Drop+pl.Delay+pl.Corrupt+pl.Reset:
		kind = FaultReset
	}
	if kind != FaultNone {
		fi.fired[kind].Add(1)
	}
	return kind
}

// faultSeed mixes the plan seed with the agent name (FNV-1a) so every
// agent gets its own stream; xorshift64 needs a non-zero state.
func faultSeed(seed uint64, agent string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(agent))
	if s := seed ^ h.Sum64(); s != 0 {
		return s
	}
	return 0x9E3779B97F4A7C15
}

// frand advances the xorshift64 state (the same generator staging.Shuffle
// uses) and maps the draw to [0,1).
func frand(state *uint64) float64 {
	s := *state
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	*state = s
	return float64(s>>11) / float64(1<<53)
}

func (fi *faultInjector) wrap(agent string, conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, fi: fi, agent: agent}
}

// faultConn is the intruder on one link. The vendor writes one request —
// a frame and any body behind it — and then reads the reply, so every
// byte after the frame, up to the vendor's next read, is the request's
// body. A cut link fails the vendor's I/O with the connection's own
// error. Only the vendor's goroutine of the moment uses a connection, so
// the state needs no lock.
type faultConn struct {
	net.Conn
	fi    *faultInjector
	agent string

	inCall  bool // a request is being written; the vendor's next read ends it
	frame   int  // bytes of the request's frame still to write
	corrupt bool // flip one byte of this request's body
	reset   bool // close the link on the vendor's read of the reply
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.inCall || !c.fi.armed.Load() {
		return c.pass(p)
	}
	// The vendor flushes each request from an empty buffered writer, so
	// its first write holds the whole frame head.
	end, op, ok := transport.FrameHead(p)
	if !ok {
		panic("fault injector: a request's first write lacks its frame head")
	}
	c.inCall, c.frame = true, end
	switch c.fi.next(c.agent, op) {
	case FaultDrop, FaultCrash:
		c.Conn.Close() // before a byte of the request leaves
	case FaultDelay:
		time.Sleep(c.fi.plan.DelayBy)
	case FaultCorrupt:
		c.corrupt = true
	case FaultReset:
		c.reset = true
	}
	return c.pass(p)
}

// pass writes p through, flipping the middle byte of the first body
// bytes it carries when the request is to be corrupted. The vendor's
// bytes are shared with its chunk store, so the flip is made in a copy.
func (c *faultConn) pass(p []byte) (int, error) {
	if c.corrupt && len(p) > c.frame {
		p = slices.Clone(p)
		p[c.frame+(len(p)-c.frame)/2] ^= 0xFF
		c.corrupt = false
	}
	c.frame = max(c.frame-len(p), 0)
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.inCall = false
	if c.reset {
		c.Conn.Close() // the request was delivered; its reply never is
	}
	return c.Conn.Read(p)
}

// TestFaultInjectorDeterminism: the same plan over the same per-agent
// request sequence injects the same faults, regardless of how requests
// from different agents interleave.
func TestFaultInjectorDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Drop: 0.1, Delay: 0.2, Corrupt: 0.1, Reset: 0.1}
	sequence := func(agents []string) map[string][]FaultKind {
		fi := newFaultInjector(plan)
		out := map[string][]FaultKind{}
		for i := 0; i < 50; i++ {
			for _, a := range agents {
				out[a] = append(out[a], fi.next(a, transport.OpFetchChunks))
			}
		}
		return out
	}
	// Same agents, different interleavings: per-agent streams identical.
	first := sequence([]string{"a", "b", "c"})
	second := sequence([]string{"c", "a", "b"})
	for agent, kinds := range first {
		if !slices.Equal(kinds, second[agent]) {
			t.Fatalf("agent %s: %v vs %v — stream not deterministic", agent, kinds, second[agent])
		}
	}
	// Different agents see different streams (astronomically unlikely to
	// collide over 50 draws at these rates).
	if slices.Equal(first["a"], first["b"]) {
		t.Fatal("two agents drew identical fault streams")
	}
}

// TestFaultInjectorCrashSchedule: a crash fires exactly at its scheduled
// request count, exactly once, and on that agent only.
func TestFaultInjectorCrashSchedule(t *testing.T) {
	fi := newFaultInjector(FaultPlan{
		Crashes: []CrashSpec{{Agent: "m", AfterCalls: 3}, {Agent: "m", AfterCalls: 5}},
	})
	var kinds []FaultKind
	for i := 0; i < 8; i++ {
		kinds = append(kinds, fi.next("m", transport.OpTest))
	}
	for i, k := range kinds {
		want := FaultNone
		if i == 2 || i == 4 { // requests 3 and 5, 1-based
			want = FaultCrash
		}
		if k != want {
			t.Fatalf("request %d = %v, want %v (all: %v)", i+1, k, want, kinds)
		}
	}
	if fi.next("other", transport.OpTest) != FaultNone {
		t.Fatal("crash leaked onto another agent")
	}
	if got := fi.counts(); got.Total() != 2 || got[FaultCrash] != 2 {
		t.Fatalf("fired %v, want the 2 crashes", got)
	}
}

// TestFaultInjectorBudget: MaxFaults stops rate-driven injection without
// desynchronizing the streams, and Agents confines it to the named links.
func TestFaultInjectorBudget(t *testing.T) {
	fi := newFaultInjector(FaultPlan{Seed: 7, Drop: 1.0, MaxFaults: 5})
	fired := 0
	for i := 0; i < 100; i++ {
		if fi.next("m", transport.OpTest) != FaultNone {
			fired++
		}
	}
	if fired != 5 {
		t.Fatalf("fired %d faults under a budget of 5", fired)
	}
	if got := fi.counts(); got.Total() != 5 {
		t.Fatalf("counts = %v", got)
	}

	fi = newFaultInjector(FaultPlan{Drop: 1.0, Agents: []string{"m"}})
	if fi.next("other", transport.OpTest) != FaultNone || fi.next("m", transport.OpTest) != FaultDrop {
		t.Fatal("Agents did not confine the faults to the named link")
	}
}

// TestFaultInjectorCorruptOnlyChunks drives a real vendor and agent over
// an intruded pipe with every request drawing corrupt: requests without a
// chunk body pass untouched and fire nothing, while every chunk push
// arrives damaged, the agent rejects it on its content address, and the
// push fails transient once its attempts are spent.
func TestFaultInjectorCorruptOnlyChunks(t *testing.T) {
	srv, err := transport.ListenWith("127.0.0.1:0", transport.ListenOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: "m", Distro: "ubt"})
	fi := newFaultInjector(FaultPlan{Seed: 1, Corrupt: 1.0})
	fi.armed.Store(true)
	client, srvEnd := net.Pipe()
	if err := srv.ServeConn(fi.wrap("m", srvEnd)); err != nil {
		t.Fatal(err)
	}
	go transport.NewAgent(m).ServeConn(client)
	if srv.WaitForAgents(1, 5*time.Second) != 1 {
		t.Fatal("agent never registered")
	}

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := srv.Ping(ctx, "m"); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if got := fi.counts(); got.Total() != 0 {
		t.Fatalf("fired %v on requests with no chunk body", got)
	}
	_, err = srv.Node("m").TestUpgrade(ctx, scenario.MySQLUpgrade())
	if !deploy.IsTransient(err) {
		t.Fatalf("push over a link that damages every delivery: %v, want a transient error", err)
	}
	// One damaged delivery per request of the vendor's push budget of 3.
	if got := fi.counts(); got[FaultCorrupt] != 3 || got.Total() != 3 {
		t.Fatalf("fired %v, want 3 corrupt chunk pushes and nothing else", got)
	}
	// The channel itself survived: the agent answered every push.
	if err := srv.Ping(ctx, "m"); err != nil {
		t.Fatalf("ping after the rejected pushes: %v", err)
	}
}

// TestFaultInjectorDelayDefault: DelayBy defaults to 2ms.
func TestFaultInjectorDelayDefault(t *testing.T) {
	if got := newFaultInjector(FaultPlan{}).plan.DelayBy; got != 2*time.Millisecond {
		t.Fatalf("default DelayBy = %v", got)
	}
	if got := newFaultInjector(FaultPlan{DelayBy: time.Second}).plan.DelayBy; got != time.Second {
		t.Fatalf("explicit DelayBy = %v", got)
	}
}
