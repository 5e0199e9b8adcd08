package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
)

// FaultPlan describes a deterministic chaos schedule for one endpoint:
// per-call fault rates (drop/delay/corrupt/reset), an optional total fault
// budget, and explicit per-agent crash points. It is the active-intruder
// channel model — an adversary that drops, delays, and corrupts messages —
// applied to the vendor/agent control channels, and it is seeded: the same
// plan against the same call sequence injects the same faults, which is
// what lets a chaos test assert an exact terminal state.
//
// A plan is installed on the vendor end of every control channel
// (Server.Faults) via NewFaultInjector. Rates are probabilities in [0,1]
// evaluated once per call against a per-agent PRNG stream derived from
// Seed and the agent name, so injection is deterministic per agent
// regardless of goroutine scheduling across agents.
type FaultPlan struct {
	// Seed keys the per-agent PRNG streams (0 is a valid, fixed seed).
	Seed uint64

	// Drop kills the connection before the frame is delivered: the peer
	// never sees the call, the caller sees a transient channel death.
	Drop float64
	// Delay sleeps DelayBy before the frame is sent — injected latency.
	Delay float64
	// Corrupt flips a byte of chunk payload in flight. It only applies to
	// chunk-push calls (the content address catches the damage and the
	// push is retried); on other ops a corrupt draw injects nothing.
	Corrupt float64
	// Reset kills the connection after the frame is delivered but before
	// the reply: the peer acts on a request the caller never sees
	// acknowledged — the "work done but unconfirmed" case.
	Reset float64

	// DelayBy is the injected latency per delay fault (default 2ms).
	DelayBy time.Duration

	// MaxFaults caps the total rate-driven faults injected (0 = no cap).
	// A bounded plan is how chaos tests guarantee the storm subsides and
	// the rollout can make progress afterwards; crash points are scheduled
	// explicitly and do not consume the budget.
	MaxFaults int

	// Crashes are explicit per-agent crash points: when the named agent's
	// call counter reaches AfterCalls, its connection is torn down once
	// (the agent "crashes" and, with reconnect enabled, comes back).
	Crashes []CrashSpec
}

// CrashSpec schedules one agent crash.
type CrashSpec struct {
	Agent string
	// AfterCalls is the 1-based call count at which the crash fires: 3
	// means the agent's third observed call dies.
	AfterCalls int
}

// FaultKind classifies what an injector decided for one call.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultDrop
	FaultDelay
	FaultCorrupt
	FaultReset
	FaultCrash
)

// FaultInjector evaluates a FaultPlan call by call. One injector serves
// one endpoint; its per-agent state makes each agent's fault sequence a
// pure function of (plan seed, agent name, that agent's call order).
type FaultInjector struct {
	plan     FaultPlan
	injected atomic.Int64

	mu     sync.Mutex
	agents map[string]*agentFaults
}

type agentFaults struct {
	rng     uint64
	calls   int
	crashes []int // pending crash points, ascending
}

// NewFaultInjector compiles a plan into an injector.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	return &FaultInjector{plan: plan, agents: make(map[string]*agentFaults)}
}

// Plan returns the injector's plan.
func (fi *FaultInjector) Plan() FaultPlan { return fi.plan }

// Injected returns how many faults (including crashes) have fired.
func (fi *FaultInjector) Injected() int64 { return fi.injected.Load() }

// DelayBy returns the plan's injected latency (defaulted).
func (fi *FaultInjector) DelayBy() time.Duration {
	if fi.plan.DelayBy > 0 {
		return fi.plan.DelayBy
	}
	return 2 * time.Millisecond
}

// Next decides the fault, if any, for the named agent's next call. Crash
// points fire exactly at their scheduled call count; rate faults draw from
// the agent's PRNG stream and stop once MaxFaults is exhausted. Corrupt
// only ever fires for chunk-push calls — for other ops the draw is spent
// but nothing is injected, keeping each agent's stream independent of
// which ops the rollout happens to issue.
func (fi *FaultInjector) Next(agent, op string) FaultKind {
	fi.mu.Lock()
	st, ok := fi.agents[agent]
	if !ok {
		st = &agentFaults{rng: faultSeed(fi.plan.Seed, agent)}
		for _, c := range fi.plan.Crashes {
			if c.Agent == agent {
				st.crashes = append(st.crashes, c.AfterCalls)
			}
		}
		fi.agents[agent] = st
	}
	st.calls++
	for i, at := range st.crashes {
		if st.calls == at {
			st.crashes = append(st.crashes[:i], st.crashes[i+1:]...)
			fi.mu.Unlock()
			fi.injected.Add(1)
			return FaultCrash
		}
	}
	p := frand(&st.rng)
	fi.mu.Unlock()

	if fi.plan.MaxFaults > 0 && fi.injected.Load() >= int64(fi.plan.MaxFaults) {
		return FaultNone
	}
	kind := FaultNone
	switch cum := 0.0; {
	case p < cum+fi.plan.Drop:
		kind = FaultDrop
	case p < cum+fi.plan.Drop+fi.plan.Delay:
		kind = FaultDelay
	case p < cum+fi.plan.Drop+fi.plan.Delay+fi.plan.Corrupt:
		kind = FaultCorrupt
	case p < cum+fi.plan.Drop+fi.plan.Delay+fi.plan.Corrupt+fi.plan.Reset:
		kind = FaultReset
	}
	if kind == FaultCorrupt && op != OpFetchChunks {
		return FaultNone
	}
	if kind != FaultNone {
		fi.injected.Add(1)
	}
	return kind
}

// faultSeed mixes the plan seed with the agent name (FNV-1a) so every
// agent gets its own deterministic stream.
func faultSeed(seed uint64, agent string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(agent); i++ {
		h ^= uint64(agent[i])
		h *= 1099511628211
	}
	s := seed ^ h
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return s
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

// corruptChunks returns a copy of chunks with one byte of the first
// non-empty payload flipped. The originals are shared with the vendor's
// chunk store and must never be damaged in place.
func corruptChunks(chunks []distrib.Chunk) []distrib.Chunk {
	out := make([]distrib.Chunk, len(chunks))
	copy(out, chunks)
	for i, ch := range out {
		if len(ch.Data) == 0 {
			continue
		}
		data := append([]byte(nil), ch.Data...)
		data[len(data)/2] ^= 0xFF
		out[i].Data = data
		break
	}
	return out
}
