// Package vmtest implements Mirage's user-machine testing subsystem
// (paper §3.3): the dependence subsystem that determines which applications
// an upgrade can affect, the trace-collection store holding pre-upgrade
// input/output recordings, and the upgrade-validation subsystem that
// applies the upgrade inside an isolated environment, replays the recorded
// inputs, silently drops (but records) network outputs, and compares the
// observed outputs with the recorded ones.
//
// The paper builds the isolated environment with a modified User-Mode
// Linux booted copy-on-write from the host filesystem. Here the sandbox is
// a copy-on-write snapshot of the simulated machine — the same contract:
// the upgraded application sees exactly the production filesystem state,
// and nothing it does escapes the sandbox.
package vmtest

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/trace"
)

// Recording is one traced pre-upgrade run of an application.
type Recording struct {
	App    string
	Inputs []string
	Trace  *trace.Trace
}

// Store holds the traces collected on a machine, per application. The
// dependence subsystem triggers collection; storage is bounded in practice
// by not recording input file contents (replay re-reads them from the
// snapshot), which this model shares.
type Store struct {
	recordings map[string][]Recording
}

// NewStore returns an empty trace store.
func NewStore() *Store {
	return &Store{recordings: make(map[string][]Recording)}
}

// Record runs app on m with the given inputs and stores the trace as the
// baseline for future upgrade validation. It returns the recording.
func (s *Store) Record(app apps.App, m *machine.Machine, inputs []string) Recording {
	rec := Recording{App: app.Name(), Inputs: append([]string(nil), inputs...), Trace: app.Run(m, inputs)}
	s.recordings[app.Name()] = append(s.recordings[app.Name()], rec)
	return rec
}

// Recordings returns the stored traces for an application.
func (s *Store) Recordings(app string) []Recording {
	return s.recordings[app]
}

// AffectedApps implements the dependence subsystem: given the environmental
// resources of each installed application (from the envid identification,
// shared with the clustering pipeline) and the file set an upgrade touches,
// it returns the applications whose resources overlap the upgrade — the
// applications that must be re-validated.
func AffectedApps(upgrade *pkgmgr.Upgrade, resourcesByApp map[string][]string) []string {
	touched := make(map[string]bool)
	for _, f := range upgrade.Pkg.Files {
		touched[f.Path] = true
	}
	var out []string
	for app, resources := range resourcesByApp {
		if app == upgrade.Pkg.Name {
			out = append(out, app)
			continue
		}
		for _, r := range resources {
			if touched[r] {
				out = append(out, app)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Verdict is the validation outcome for one application.
type Verdict struct {
	App    string
	OK     bool
	Reason string
}

func (v Verdict) String() string {
	status := "PASS"
	if !v.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("%s: %s (%s)", v.App, status, v.Reason)
}

// Report is the result of validating one upgrade on one machine.
type Report struct {
	UpgradeID string
	Machine   string
	Verdicts  []Verdict
	// Sandbox is the post-upgrade isolated machine state; on failure it is
	// the paper's "report image" that lets the vendor reproduce the
	// problem. Discarding it discards the upgrade.
	Sandbox *machine.Machine
}

// OK reports whether every affected application passed.
func (r *Report) OK() bool {
	for _, v := range r.Verdicts {
		if !v.OK {
			return false
		}
	}
	return true
}

// Validator validates upgrades on one machine.
type Validator struct {
	M     *machine.Machine
	Store *Store
	// ResourcesByApp is the dependence information: environmental
	// resources per installed application.
	ResourcesByApp map[string][]string
}

// NewValidator returns a validator for machine m.
func NewValidator(m *machine.Machine, store *Store) *Validator {
	return &Validator{M: m, Store: store, ResourcesByApp: make(map[string][]string)}
}

// Validate applies the upgrade in an isolated snapshot of the machine and
// tests every affected application by replaying its recorded inputs and
// comparing outputs. The production machine is never modified; the caller
// applies the upgrade to it only on success.
func (v *Validator) Validate(up *pkgmgr.Upgrade) (*Report, error) {
	sandbox := v.M.Snapshot("validate:" + up.ID)
	if err := pkgmgr.NewManager(sandbox).Apply(up); err != nil {
		return &Report{
			UpgradeID: up.ID,
			Machine:   v.M.Name,
			Verdicts: []Verdict{{
				App:    up.Pkg.Name,
				OK:     false,
				Reason: "upgrade failed to integrate: " + err.Error(),
			}},
			Sandbox: sandbox,
		}, nil
	}

	report := &Report{UpgradeID: up.ID, Machine: v.M.Name, Sandbox: sandbox}
	for _, appName := range AffectedApps(up, v.ResourcesByApp) {
		model := apps.Lookup(appName)
		if model == nil {
			report.Verdicts = append(report.Verdicts, Verdict{
				App: appName, OK: false, Reason: "no behaviour model for affected application",
			})
			continue
		}
		recs := v.Store.Recordings(appName)
		if len(recs) == 0 {
			// Applications without traces can only be checked for
			// integration and crashing problems (paper §3.3).
			tr := model.Run(sandbox, nil)
			ok := tr.ExitStatus() == "ok"
			reason := "integration check: started cleanly (no traces recorded)"
			if !ok {
				reason = "integration check: " + crashDetail(tr)
			}
			report.Verdicts = append(report.Verdicts, Verdict{App: appName, OK: ok, Reason: reason})
			continue
		}
		verdict := Verdict{App: appName, OK: true, Reason: fmt.Sprintf("replayed %d trace(s), outputs identical", len(recs))}
		for _, rec := range recs {
			replayed := model.Run(sandbox, rec.Inputs)
			if len(CompareOutputs(rec.Trace, replayed)) > 0 {
				verdict.OK = false
				verdict.Reason = "output divergence during replay"
				if replayed.ExitStatus() != "ok" {
					verdict.Reason = crashDetail(replayed)
				}
			}
		}
		report.Verdicts = append(report.Verdicts, verdict)
	}
	return report, nil
}

func crashDetail(tr *trace.Trace) string {
	for _, e := range tr.Outputs() {
		if e.Op == trace.OpWrite && e.Path == "/dev/stderr" {
			return "crash: " + string(e.Data)
		}
	}
	return "crash during replay"
}

// CompareOutputs compares the observable outputs (file writes, network
// sends, exit status) of a baseline and a replayed trace and returns a
// bounded list of human-readable differences; empty means identical
// behaviour. Network outputs of the replay were dropped rather than sent —
// they exist only in the trace — so comparing them is side-effect free.
func CompareOutputs(baseline, replayed *trace.Trace) []string {
	var diffs []string
	b, r := baseline.Outputs(), replayed.Outputs()
	n := len(b)
	if len(r) < n {
		n = len(r)
	}
	for i := 0; i < n; i++ {
		be, re := b[i], r[i]
		switch {
		case be.Op != re.Op:
			diffs = append(diffs, fmt.Sprintf("output %d: %v became %v", i, be.Op, re.Op))
		case be.Op == trace.OpWrite && be.Path != re.Path:
			diffs = append(diffs, fmt.Sprintf("output %d: write to %s became write to %s", i, be.Path, re.Path))
		case !bytes.Equal(be.Data, re.Data):
			diffs = append(diffs, fmt.Sprintf("output %d (%v): %q became %q", i, be.Op, clip(be.Data), clip(re.Data)))
		}
	}
	for i := n; i < len(b); i++ {
		diffs = append(diffs, fmt.Sprintf("output %d (%v) missing after upgrade", i, b[i].Op))
	}
	for i := n; i < len(r); i++ {
		diffs = append(diffs, fmt.Sprintf("unexpected output %d (%v) after upgrade", i, r[i].Op))
	}
	return diffs
}

func clip(data []byte) string {
	const max = 64
	s := string(data)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return strings.ToValidUTF8(s, "?")
}
