package deploy

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/report"
	"repro/internal/staging"
)

// Record types — the one vocabulary of Event.Type, spoken alike by the
// controller's observer stream, the rollout journal and the control
// plane's event API. In the order a healthy journal sees them:
const (
	// RecPlan heads every journal: the identity of the plan the journal
	// describes. Resume refuses a journal whose plan hash does not match
	// the freshly built plan.
	RecPlan = "plan"
	// RecStageStart marks a plan stage beginning execution.
	RecStageStart = "stage_start"
	// RecTested records one member validation verdict.
	RecTested = "tested"
	// RecIntegrated records one member integrating an upgrade version.
	RecIntegrated = "integrated"
	// RecQuarantined records a member left behind as unreachable.
	RecQuarantined = "quarantined"
	// RecFix records the vendor releasing a corrected upgrade: UpgradeID is
	// the new version, PrevID the superseded one.
	RecFix = "fix"
	// RecGate records a stage's gate releasing the next stage.
	RecGate = "gate"
	// RecAbandoned records the vendor giving up on the upgrade (or an
	// operator abort, with the Reason naming it).
	RecAbandoned = "abandoned"
	// RecComplete seals a journal whose rollout finished.
	RecComplete = "complete"
	// RecDrift records a live-fleet drift event folded mid-rollout: Node
	// is the machine, Cluster the cluster it left, Reason the
	// classification ("migrated", "drifted") plus destination. Drift
	// records are history, not protocol state: the fold counts them, but
	// they gate nothing by themselves — the drift policy re-evaluates
	// against the live fleet.
	RecDrift = "drift"

	// Rollback records follow an abandoned record when the fleet is driven
	// back to the baseline. All four are boundary records — each is fsynced
	// before the rollback proceeds, because rollback is exactly the code
	// path where a replayed side effect (re-reverting a member) must be
	// provably unnecessary.

	// RecRollbackStart marks a rollback pass beginning; no member reverts
	// before this record is durable. UpgradeID is the baseline restored,
	// PrevID the version rolled back.
	RecRollbackStart = "rollback_start"
	// RecRolledBack records one member restored to the baseline.
	RecRolledBack = "rolled_back"
	// RecRollbackSkip records a member the rollback left behind
	// (quarantined or unreachable) with the reason.
	RecRollbackSkip = "rollback_skip"
	// RecRollbackDone seals the rollback: the journal's second terminal
	// state — converged on the new version (RecComplete) or verifiably
	// back on the baseline (RecRollbackDone).
	RecRollbackDone = "rollback_complete"
)

// Event is one deployment state transition, in exactly the form the
// journal writes it as one JSON line and the control plane streams it.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`

	// Plan identity (RecPlan).
	Policy   string               `json:"policy,omitempty"`
	Seed     uint64               `json:"seed,omitempty"`
	PlanHash string               `json:"plan_hash,omitempty"`
	Clusters []staging.ClusterRef `json:"clusters,omitempty"`

	// State transitions. Stage is the plan stage index, -1 for post-plan
	// work (promoted adaptive waves, final notification, rollback).
	Stage     int    `json:"stage"`
	Node      string `json:"node,omitempty"`
	Cluster   string `json:"cluster,omitempty"`
	UpgradeID string `json:"upgrade,omitempty"`
	PrevID    string `json:"prev,omitempty"`
	Success   bool   `json:"success,omitempty"`
	// Round packs beside Success in one word, so Failure's pointer leaves
	// an Event no larger: every Event passes by value from the controller
	// through the journal to the control plane, which keeps a live
	// rollout's most recent records in a fixed window of Events.
	Round  int32  `json:"round,omitempty"`
	Reason string `json:"reason,omitempty"`

	// Failure is what a failing verdict (RecTested) says beyond its
	// success bit: the failure signature and its image's content address.
	// Every other record leaves it nil.
	Failure *report.Failure `json:"failure,omitempty"`
}

// Cursor is what a rollout's records say about it: the one fold of the
// record stream, built by Apply. The live controller books every
// transition through it and decides from it (Controller.Cursor); Resume
// rebuilds it from a journal so a resumed rollout skips completed work;
// rollback resume, the control plane's status and the chaos verdict read
// the same fold.
//
// Apply and the start of a run take its lock, and other goroutines read
// it through Read. The goroutine booking the rollout reads unlocked: it
// writes every field it reads (the control plane applies only drift
// records, which the controller never reads).
type Cursor struct {
	mu sync.Mutex

	// Policy is the plan's policy, as the plan record names it.
	Policy Policy
	// Stage is the last plan stage that started (-1 before the first).
	Stage int
	// DoneStages is the count of leading plan stages whose gate passed;
	// Run releases them immediately without re-running their waves.
	DoneStages int
	// Rounds restores the vendor debugging round counter.
	Rounds int
	// UpgradeID is the upgrade version that was current when the journal
	// ended (advanced past the original by recorded fix releases). The
	// caller is responsible for passing Run the matching upgrade.
	UpgradeID string
	// FinalID restores the last upgrade version the journal records as
	// actually integrated on a node, so a resumed outcome that performs
	// no new integrations still names the version that deployed.
	FinalID string
	// Tested counts validation verdicts; Overhead the failing ones (the
	// paper's metric).
	Tested, Overhead int
	// Integrated maps node name to the upgrade version it holds: the one
	// it integrated, or the baseline once rolled back. Such members are
	// never re-tested or re-integrated in waves; members holding a
	// superseded version are brought to the final version by the usual
	// §4.3 late notification.
	Integrated map[string]string
	// Quarantined lists members quarantined or left behind by a rollback;
	// quarantine is sticky.
	Quarantined map[string]bool
	// Unclean lists clusters with recorded failures or quarantines, so
	// adaptive gate promotion stays exactly as conservative on resume as
	// it was in the interrupted run.
	Unclean map[string]bool
	// NodeTests and NodeFailures restore the per-node validation counters.
	NodeTests, NodeFailures map[string]int

	// Terminal is the record that ended the journal — complete, abandoned
	// or rollback_complete — and nil while it is still open, which
	// includes a rollback pass that began after an abandoned record.
	Terminal *Event

	// Baseline is the version a rollback restores, set once a rollback
	// started. Reverted members are verifiably on it and are never
	// touched again; Skipped maps left-behind members to the journaled
	// reason. Both accumulate across repeated rollback starts, so a
	// twice-crashed rollback never forgets a durable revert.
	Baseline string
	Reverted map[string]bool
	Skipped  map[string]string

	// Drifted lists the members drift records report as drifted
	// (rep-invalidating, not merely migrated), in report order;
	// DriftCluster maps each to its cluster of deployment.
	Drifted      []string
	DriftCluster map[string]string

	// from is the upgrade the last Run over this fold started from: the
	// version an Outcome names as final until a member integrates one.
	from string
}

// Apply folds one record into the cursor. Record types it does not drive
// state from are ignored.
func (c *Cursor) Apply(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Type {
	case RecPlan:
		c.Stage, c.UpgradeID = -1, ev.UpgradeID
		for _, p := range staging.Policies() {
			if p.String() == ev.Policy {
				c.Policy = p
			}
		}
	case RecStageStart:
		c.Stage = ev.Stage
	case RecGate:
		// Stages gate strictly in order; count the contiguous prefix.
		if ev.Stage == c.DoneStages {
			c.DoneStages++
		}
	case RecTested:
		c.Tested++
		set(&c.NodeTests, ev.Node, c.NodeTests[ev.Node]+1)
		if !ev.Success {
			c.Overhead++
			set(&c.NodeFailures, ev.Node, c.NodeFailures[ev.Node]+1)
			set(&c.Unclean, ev.Cluster, true)
		}
	case RecIntegrated:
		set(&c.Integrated, ev.Node, ev.UpgradeID)
		c.FinalID = ev.UpgradeID
	case RecQuarantined:
		set(&c.Quarantined, ev.Node, true)
		set(&c.Unclean, ev.Cluster, true)
	case RecFix:
		c.Rounds, c.UpgradeID = int(ev.Round), ev.UpgradeID
	case RecAbandoned, RecComplete, RecRollbackDone:
		// An abandoned record names the round the vendor gave up in: a
		// fixer that could not produce a fix still spent one.
		c.Rounds = max(c.Rounds, int(ev.Round))
		t := ev // only terminal records leave Apply's stack
		c.Terminal = &t
	case RecRollbackStart:
		c.Baseline, c.Terminal = ev.UpgradeID, nil
	case RecRolledBack:
		set(&c.Integrated, ev.Node, ev.UpgradeID)
		set(&c.Reverted, ev.Node, true)
	case RecRollbackSkip:
		set(&c.Quarantined, ev.Node, true)
		set(&c.Skipped, ev.Node, ev.Reason)
	case RecDrift:
		if _, seen := c.DriftCluster[ev.Node]; !seen && strings.HasPrefix(ev.Reason, "drifted") {
			set(&c.DriftCluster, ev.Node, ev.Cluster)
			c.Drifted = append(c.Drifted, ev.Node)
		}
	}
}

// set stores v under k, making the map on first use.
func set[V any](m *map[string]V, k string, v V) {
	if *m == nil {
		*m = make(map[string]V)
	}
	(*m)[k] = v
}

// Read calls f with the fold, holding the lock Apply takes: a consistent
// view for a goroutine other than the one booking the rollout. f must not
// keep the fold's maps or call back into the cursor.
func (c *Cursor) Read(f func(*Cursor)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c)
}

// begin starts a run over the fold: from is the upgrade it starts from,
// and the per-member maps it books into are sized for n members, so a
// fresh fold does not regrow them member by member.
func (c *Cursor) begin(from string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.from = from
	if c.Integrated == nil {
		c.Integrated = make(map[string]string, n)
	}
	if c.NodeTests == nil {
		c.NodeTests = make(map[string]int, n)
	}
}

// final is the version an Outcome names as deployed: the last one a
// member integrated or, before any did, the one Run started from.
func (c *Cursor) final() string {
	if c.FinalID != "" {
		return c.FinalID
	}
	return c.from
}

// Member reads the fold's row for member name of cluster. Callers hold
// the fold (Read), or own it.
func (c *Cursor) Member(name, cluster string) MemberStatus {
	_, drifted := c.DriftCluster[name]
	return MemberStatus{Cluster: cluster, Tests: c.NodeTests[name], Failures: c.NodeFailures[name],
		UpgradeID: c.Integrated[name], Quarantined: c.Quarantined[name], Drifted: drifted}
}

// outcome reads the fold as the Outcome of a run over clusters. It is the
// one place a fold becomes an Outcome, for Run and for Rollback.
func (c *Cursor) outcome(policy Policy, clusters []*Cluster) *Outcome {
	out := &Outcome{Policy: policy, FinalID: c.final(), Rounds: c.Rounds, Overhead: c.Overhead,
		Nodes: make(map[string]*MemberStatus)}
	for _, cl := range clusters {
		for n := range cl.Nodes() {
			st := c.Member(n.Name(), cl.ID)
			out.Nodes[n.Name()] = &st
		}
	}
	for name, st := range out.Nodes {
		if st.Quarantined {
			out.Quarantined = append(out.Quarantined, name)
		}
	}
	sort.Strings(out.Quarantined)
	return out
}
