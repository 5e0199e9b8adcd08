// Package report implements Mirage's reporting subsystem (paper §3.4):
// the Upgrade Report Repository (URR), which holds per machine the
// cluster of deployment, the succinct test result and a report image that
// lets the vendor reproduce a failure — in the paper, the entire upgraded
// virtual-machine state; here, the full state of the simulated sandbox,
// which Materialize turns back into a runnable machine.
//
// The URR is a view of the deployment journal: each verdict is one
// "tested" record, a failing one carrying a Failure, and images sit
// content-addressed beside the journals (PutImage, LoadImage).
package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
)

// FileState is one file captured in a report image.
type FileState struct {
	Path    string
	Type    machine.FileType
	Version string
	Data    []byte
}

// PackageState is one installed package captured in a report image.
type PackageState struct {
	Name    string
	Version string
	Files   []string
}

// Image is a reproducible snapshot of a machine: the paper's report image.
type Image struct {
	MachineName string
	Files       []FileState
	Env         map[string]string
	Packages    []PackageState
}

// CaptureImage snapshots the full state of m.
func CaptureImage(m *machine.Machine) *Image {
	img := &Image{MachineName: m.Name, Env: m.AllEnv()}
	for _, f := range m.Files() {
		img.Files = append(img.Files, FileState{
			Path: f.Path, Type: f.Type, Version: f.Version,
			Data: append([]byte(nil), f.Data...),
		})
	}
	for _, ref := range m.Packages() {
		img.Packages = append(img.Packages, PackageState{
			Name: ref.Name, Version: ref.Version, Files: m.PackageFiles(ref.Name),
		})
	}
	return img
}

// Materialize reconstructs a runnable machine from the image, letting the
// vendor reproduce the reported problem locally.
func (img *Image) Materialize() *machine.Machine {
	m := machine.New(img.MachineName)
	for _, f := range img.Files {
		m.WriteFile(&machine.File{
			Path: f.Path, Type: f.Type, Version: f.Version,
			Data: append([]byte(nil), f.Data...),
		})
	}
	for k, v := range img.Env {
		m.SetEnv(k, v)
	}
	for _, p := range img.Packages {
		m.InstallPackage(machine.PackageRef{Name: p.Name, Version: p.Version}, p.Files)
	}
	return m
}

// Report is one validation verdict, as a node's TestUpgrade returns it
// and the URR keeps it.
type Report struct {
	UpgradeID string
	Machine   string
	// Cluster is the cluster of deployment, set when the verdict is booked.
	Cluster string
	Success bool
	// FailedApps and Reasons summarise the failure succinctly; empty on
	// success.
	FailedApps []string
	Reasons    []string
	// Image is attached on failure so the vendor can reproduce the
	// problem; successful reports omit it to save repository space.
	Image *Image
}

// Failure is what a failing tested record holds beyond its success bit:
// the failure signature and the content address of the report image in
// the store beside the journal ("" if the agent sent no image).
type Failure struct {
	FailedApps []string `json:"failed_apps,omitempty"`
	Reasons    []string `json:"reasons,omitempty"`
	Image      string   `json:"image,omitempty"`
}

// Signature is a stable identity for the failure mode: upgrade plus failed
// applications plus reasons. The vendor uses it to collapse the redundant
// reports the survey complains about.
func (r *Report) Signature() string {
	if r.Success {
		return r.UpgradeID + "|success"
	}
	return r.UpgradeID + "|" + strings.Join(r.FailedApps, ",") + "|" + strings.Join(r.Reasons, ";")
}

func (r *Report) String() string {
	status := "success"
	if !r.Success {
		status = "FAILURE " + strings.Join(r.FailedApps, ",")
	}
	return fmt.Sprintf("report upgrade=%s machine=%s cluster=%s: %s",
		r.UpgradeID, r.Machine, r.Cluster, status)
}

// URR is the Upgrade Report Repository: the fold of the verdicts booked
// into it, co-located with the vendor as in the paper and safe for
// concurrent use. It keeps failing verdicts whole and counts passing ones.
//
// A verdict is named by its journal and its ordinal among the journal's
// tested records. Both the live controller and a replay book a journal's
// verdicts in ordinal order, so the URR keeps per journal the last
// ordinal it holds and ignores any at or below it: resuming a journal in
// the process that wrote it counts no verdict twice.
type URR struct {
	mu       sync.Mutex
	held     map[string]int    // journal → last ordinal booked
	tally    map[string][2]int // upgrade → successes, failures
	failures []*Report         // failing verdicts, in booking order
}

// New returns an empty repository.
func New() *URR {
	return &URR{held: make(map[string]int), tally: make(map[string][2]int)}
}

// Book folds the verdict r, the ordinal-th of journal, into the
// repository: taken only if the ordinal is past the last one the URR holds
// for that journal. A verdict with no journal ("") is always taken.
func (u *URR) Book(journal string, ordinal int, r *Report) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if journal != "" {
		if ordinal <= u.held[journal] {
			return
		}
		u.held[journal] = ordinal
	}
	t := u.tally[r.UpgradeID]
	if r.Success {
		t[0]++
	} else {
		t[1]++
		u.failures = append(u.failures, r)
	}
	u.tally[r.UpgradeID] = t
}

// Len returns the number of verdicts booked.
func (u *URR) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, t := range u.tally {
		n += t[0] + t[1]
	}
	return n
}

// Failures returns the failed reports for one upgrade, in booking order.
func (u *URR) Failures(upgradeID string) []*Report {
	u.mu.Lock()
	defer u.mu.Unlock()
	var out []*Report
	for _, r := range u.failures {
		if r.UpgradeID == upgradeID {
			out = append(out, r)
		}
	}
	return out
}

// FailureGroup is a set of reports sharing one failure signature.
type FailureGroup struct {
	Signature string
	Clusters  []string
	Reports   []*Report
	// Representative is the first report of the group — the one the
	// vendor debugs; the rest are the redundancy Mirage's clustering is
	// designed to minimise.
	Representative *Report
}

// GroupFailures collapses an upgrade's failures by signature, the
// de-duplication view of the repository.
func (u *URR) GroupFailures(upgradeID string) []FailureGroup {
	groups := make(map[string]*FailureGroup)
	var order []string
	for _, r := range u.Failures(upgradeID) {
		sig := r.Signature()
		g, ok := groups[sig]
		if !ok {
			g = &FailureGroup{Signature: sig, Representative: r}
			groups[sig] = g
			order = append(order, sig)
		}
		g.Reports = append(g.Reports, r)
		g.Clusters = append(g.Clusters, r.Cluster)
	}
	out := make([]FailureGroup, 0, len(groups))
	for _, sig := range order {
		g := groups[sig]
		sort.Strings(g.Clusters)
		g.Clusters = slices.Compact(g.Clusters)
		out = append(out, *g)
	}
	return out
}

// Summary counts successes and failures for an upgrade.
func (u *URR) Summary(upgradeID string) (successes, failures int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	t := u.tally[upgradeID]
	return t[0], t[1]
}
