package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
	"repro/internal/scenario"
)

// The assembly's own suite: every test drives a fleet of real agents (on
// in-process pipes) through the one Vendor — enrolment, profiling, a
// rollout finished by Spec — so what it checks is the wiring callers no
// longer write by hand.

// startVendor assembles a vendor and attaches one agent per machine.
func startVendor(t *testing.T, machines ...*machine.Machine) *Vendor {
	v, _ := startFleet(t, machines...)
	return v
}

// startFleet is startVendor for tests that also drive the agents.
func startFleet(t *testing.T, machines ...*machine.Machine) (*Vendor, map[string]*agent.Agent) {
	t.Helper()
	v, err := New(Options{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		v.Close()
	})
	agents := make(map[string]*agent.Agent, len(machines))
	for _, m := range machines {
		agents[m.Name] = agent.NewAgent(m)
		go agents[m.Name].ServePipes(v.Server, stop)
	}
	if got := v.Server.WaitForAgents(len(machines), 5*time.Second); got != len(machines) {
		t.Fatalf("only %d/%d agents registered", got, len(machines))
	}
	return v, agents
}

// mysqlApp is the MySQL experiment with the vendor's my.cnf parsers (the
// Figure 6 setup), so a legacy user configuration is a parsed difference.
func mysqlApp() App {
	reg := parser.MirageRegistryConfig()
	reg.Rules = append(reg.Rules,
		parser.RegistryRule{Match: "path", Pattern: "/etc/mysql/my.cnf", Parser: "config"},
		parser.RegistryRule{Match: "path", Pattern: "/home/user/.my.cnf", Parser: "config"})
	return App{Name: "mysql", Refs: scenario.MySQLResourceRefs(), Registry: reg,
		Reference: scenario.MySQLVendorReference()}
}

// mysqlFleet enrols two plain machines, two with PHP 4 (broken by the
// upgrade's client library) and one with a legacy ~/.my.cnf (crashes the
// new server).
func mysqlFleet(t *testing.T) (*Vendor, []*machine.Machine) {
	t.Helper()
	var machines []*machine.Machine
	var names, php []string
	for _, spec := range []scenario.MySQLMachineSpec{
		{Name: "u-plain-1", Distro: "ubt"}, {Name: "u-plain-2", Distro: "ubt"},
		{Name: "u-php4-1", Distro: "ubt", PHP4: true}, {Name: "u-php4-2", Distro: "ubt", PHP4: true},
		{Name: "u-usercfg-1", Distro: "ubt", UserCnf: true},
	} {
		machines, names = append(machines, scenario.BuildMySQLMachine(spec)), append(names, spec.Name)
		if spec.PHP4 {
			php = append(php, spec.Name)
		}
	}
	v := startVendor(t, machines...)
	ctx := context.Background()
	if err := v.Enroll(ctx, "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}}, names); err != nil {
		t.Fatal(err)
	}
	if err := v.Enroll(ctx, "php", [][]string{nil, nil}, php); err != nil {
		t.Fatal(err)
	}
	return v, machines
}

func profileMySQL(t *testing.T, v *Vendor) []*deploy.Cluster {
	t.Helper()
	clusters, err := v.Profile(context.Background(), mysqlApp(), cluster.Config{Diameter: 3})
	if err != nil {
		t.Fatal(err)
	}
	return clusters
}

// clustering turns clusters of deployment back into the clustering they
// were assembled from, for cluster.Evaluate.
func clustering(dcs []*deploy.Cluster) []*cluster.Cluster {
	out := make([]*cluster.Cluster, len(dcs))
	for i, dc := range dcs {
		out[i] = &cluster.Cluster{ID: i, Distance: dc.Distance}
		for n := range dc.Nodes() {
			out[i].Machines = append(out[i].Machines, n.Name())
		}
	}
	return out
}

// deployMySQL runs the MySQL 4->5 rollout described by spec (policy, fixer,
// journal…) to its end, over the freshly profiled fleet unless spec names
// its clusters.
func deployMySQL(t *testing.T, v *Vendor, spec orchestrator.Spec) (*deploy.Outcome, error) {
	t.Helper()
	if spec.Upgrade == nil {
		spec.Upgrade = scenario.MySQLUpgrade()
	}
	if spec.Clusters == nil {
		spec.Clusters = profileMySQL(t, v)
	}
	h, err := v.Orch.Start(context.Background(), v.Spec(spec))
	if err != nil {
		t.Fatal(err)
	}
	return h.Wait(context.Background())
}

func TestIdentifyResourcesOnReference(t *testing.T) {
	ref := scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: "reference", Distro: "ubt", EtcCnf: "[mysqld]\nport = 3306\n"})
	v := startVendor(t, ref)
	res, err := v.Server.Identify(context.Background(), "reference", "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res, " ")
	for _, want := range []string{"/lib/libc.so", apps.MySQLExec, "/etc/mysql/my.cnf", "env:HOME"} {
		if !strings.Contains(joined, want) {
			t.Errorf("resources missing %q: %v", want, res)
		}
	}
	// The database directory is excluded by default (/var).
	if strings.Contains(joined, "/var/lib/mysql") {
		t.Errorf("database directory classified: %v", res)
	}
}

func TestClusterFleetSeparatesBehaviours(t *testing.T) {
	v, _ := mysqlFleet(t)
	clusters := clustering(profileMySQL(t, v))
	byMachine := make(map[string]int)
	for i, c := range clusters {
		for _, m := range c.Machines {
			byMachine[m] = i
		}
	}
	if byMachine["u-php4-1"] != byMachine["u-php4-2"] {
		t.Fatal("identical php4 machines split")
	}
	if byMachine["u-plain-1"] != byMachine["u-plain-2"] {
		t.Fatal("identical plain machines split")
	}
	if byMachine["u-php4-1"] == byMachine["u-plain-1"] {
		t.Fatal("php4 machines clustered with plain machines")
	}
	if byMachine["u-usercfg-1"] == byMachine["u-plain-1"] {
		t.Fatal("userconfig machine clustered with plain machines")
	}
	q := cluster.Evaluate(clusters, cluster.Behavior{
		"u-plain-1": "", "u-plain-2": "",
		"u-php4-1": "php-crash", "u-php4-2": "php-crash",
		"u-usercfg-1": "mycnf-crash",
	})
	if !q.Sound() {
		t.Fatalf("clustering not sound: %+v", q)
	}
	// Profiling is what starts the live fleet view.
	if view := v.Monitor().View(); view.Machines != 5 || len(view.Clusters) != len(clusters) {
		t.Fatalf("monitor view = %+v, want the profiled fleet", view)
	}
}

// TestClusterFleetIdenticalAcrossRuns: profiling the same fleet again
// yields the same clusters of deployment, distances, representatives and
// members, whatever order the agents' fingerprints arrived in.
func TestClusterFleetIdenticalAcrossRuns(t *testing.T) {
	v, _ := mysqlFleet(t)
	want := ""
	for run := 0; run < 3; run++ {
		got := ""
		for _, dc := range profileMySQL(t, v) {
			got += fmt.Sprintf(" %s@%v:%s", dc.ID, dc.Distance, dc.Representatives[0].Name())
			for _, n := range dc.Others {
				got += "," + n.Name()
			}
		}
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d:%s\nwant%s", run, got, want)
		}
	}
}

func TestClusterFleetUnknownApp(t *testing.T) {
	v := startVendor(t, scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: "u", Distro: "ubt"}))
	err := v.Enroll(context.Background(), "unknown", [][]string{nil}, []string{"u"})
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("enrolling an unknown application = %v", err)
	}
	bad := mysqlApp()
	bad.Registry.Rules = append(bad.Registry.Rules, parser.RegistryRule{Match: "path", Pattern: "/x", Parser: "nope"})
	if _, err := v.Profile(context.Background(), bad, cluster.Config{Diameter: 3}); err == nil {
		t.Fatal("no error for a registry naming an unknown parser")
	}
	if v.Monitor() != nil {
		t.Fatal("a failed Profile published a monitor")
	}
}

func TestRepsPerCluster(t *testing.T) {
	v, machines := mysqlFleet(t)
	members := 0
	for _, dc := range profileMySQL(t, v) {
		if len(dc.Representatives) != 1 {
			t.Fatalf("cluster %s has %d representatives, want 1", dc.ID, len(dc.Representatives))
		}
		members += dc.Size()
	}
	if members != len(machines) {
		t.Fatalf("clusters of deployment hold %d members, fleet has %d", members, len(machines))
	}
}

func TestStagedDeploymentEndToEnd(t *testing.T) {
	v, machines := mysqlFleet(t)
	out, err := deployMySQL(t, v, orchestrator.Spec{Policy: deploy.PolicyBalanced, Fix: scenario.MySQLFix})
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned {
		t.Fatalf("deployment abandoned; URR failures: %v", v.URR.GroupFailures("mysql-5.0.22"))
	}
	if got := out.Integrated(); got != len(machines) {
		t.Fatalf("integrated = %d, want %d", got, len(machines))
	}
	// Staging keeps overhead at the number of distinct problems hit by
	// representatives (php crash and my.cnf crash: at most one rep each).
	if out.Overhead == 0 || out.Overhead > 2 {
		t.Fatalf("overhead = %d, want 1 or 2", out.Overhead)
	}
	// The Spec finisher is what books the wire traffic.
	if out.Transfer.Frames == 0 || out.Transfer.ChunkBytes == 0 {
		t.Fatalf("outcome carries no transfer accounting: %+v", out.Transfer)
	}
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s runs mysql %s", m.Name, ref.Version)
		}
		if tr := (apps.MySQL{}).Run(m, []string{"SELECT 1"}); tr.ExitStatus() != "ok" {
			t.Fatalf("%s: mysql broken after deployment: %s", m.Name, tr.ExitStatus())
		}
		if _, ok := m.Package("php"); ok {
			if tr := (apps.PHP{}).Run(m, nil); tr.ExitStatus() != "ok" {
				t.Fatalf("%s: php broken after deployment", m.Name)
			}
		}
	}
	// Every gated member was handed to the monitor (Spec's GatedMembers
	// hook), so the live view shows every cluster gated.
	for _, c := range v.Monitor().View().Clusters {
		if !c.Gated {
			t.Fatalf("cluster %s finished the rollout ungated in the fleet view", c.Name)
		}
	}
}

func TestStagedDeploymentProtectsNonRepresentatives(t *testing.T) {
	v, _ := mysqlFleet(t)
	if _, err := deployMySQL(t, v, orchestrator.Spec{Fix: scenario.MySQLFix}); err != nil {
		t.Fatal(err)
	}
	// u-php4-2 is the non-representative of the php4 cluster: it must
	// never have tested the faulty original upgrade.
	for _, r := range v.URR.Failures("mysql-5.0.22") {
		if r.Machine == "u-php4-2" {
			t.Fatal("non-representative tested the faulty upgrade")
		}
	}
}

func TestNotifyFinalConvergesVersions(t *testing.T) {
	v, _ := mysqlFleet(t)
	out, err := deployMySQL(t, v, orchestrator.Spec{Fix: scenario.MySQLFix})
	if err != nil || out.Abandoned {
		t.Fatalf("outcome %+v, err %v", out, err)
	}
	// Every node converged on the SAME final upgrade ID, including the
	// ones that integrated the original version before the fix existed.
	for name, st := range out.Nodes {
		if st.UpgradeID != out.FinalID {
			t.Fatalf("%s finished on %q, final is %q", name, st.UpgradeID, out.FinalID)
		}
	}
}

func TestUrgentUpgradeBypassesStagingAtCoreLevel(t *testing.T) {
	v, machines := mysqlFleet(t)
	up := scenario.MySQLFixed("mysql-5.0.22-urgent")
	up.Urgent = true
	out, err := deployMySQL(t, v, orchestrator.Spec{Policy: deploy.PolicyBalanced, Upgrade: up})
	if err != nil {
		t.Fatal(err)
	}
	if out.Policy != deploy.PolicyNoStaging {
		t.Fatalf("urgent upgrade used %v", out.Policy)
	}
	if out.Integrated() != len(machines) {
		t.Fatalf("integrated = %d", out.Integrated())
	}
}

func TestAbandonedDeploymentLeavesProductionIntact(t *testing.T) {
	v, machines := mysqlFleet(t)
	out, err := deployMySQL(t, v, orchestrator.Spec{}) // the vendor cannot fix anything
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatal("not abandoned")
	}
	// Machines whose cluster never passed keep running 4.1.22 untouched —
	// validation happened only in sandboxes.
	for _, m := range machines {
		ref, _ := m.Package("mysql")
		if out.Nodes[m.Name].UpgradeID == "" && ref.Version != "4.1.22" {
			t.Fatalf("%s modified despite never passing validation: %s", m.Name, ref.Version)
		}
		if tr := (apps.MySQL{}).Run(m, []string{"SELECT 1"}); tr.ExitStatus() != "ok" {
			t.Fatalf("%s broken after abandoned deployment", m.Name)
		}
	}
}

// TestJournaledStageDeployment: a spec naming a journal runs as a durable
// rollout, and resuming the sealed journal through the release store is
// refused rather than silently re-run.
func TestJournaledStageDeployment(t *testing.T) {
	v, machines := mysqlFleet(t)
	spec := orchestrator.Spec{Fix: scenario.MySQLFix, Rebuild: scenario.MySQLRelease,
		Clusters: profileMySQL(t, v), Journal: filepath.Join(t.TempDir(), "deploy.journal")}
	out, err := deployMySQL(t, v, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != len(machines) || out.Abandoned {
		t.Fatalf("outcome = %+v", out)
	}
	recs, err := rollout.Load(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 || recs[0].Type != deploy.RecPlan || recs[len(recs)-1].Type != rollout.RecComplete {
		t.Fatalf("journal shape wrong: %d records, head %s, tail %s",
			len(recs), recs[0].Type, recs[len(recs)-1].Type)
	}
	spec.Resume = true
	if _, err := deployMySQL(t, v, spec); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("resume of a sealed journal = %v, want sealed-journal refusal", err)
	}
	if again, err := rollout.Load(spec.Journal); err != nil || len(again) != len(recs) {
		t.Fatalf("refused resume still appended records: %d -> %d (%v)", len(recs), len(again), err)
	}
}

// heldNode passes validation once released — a member that keeps a
// rollout running until the test lets it go.
type heldNode struct {
	name             string
	started, release chan struct{}
}

func (n *heldNode) Name() string { return n.name }
func (n *heldNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	close(n.started)
	<-n.release
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}
func (n *heldNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

// TestPrivateJournalDirectory: a vendor given no journal directory still
// journals every rollout — into a private directory that Close removes.
func TestPrivateJournalDirectory(t *testing.T) {
	v, err := New(Options{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rep := &heldNode{name: "held", started: make(chan struct{}), release: make(chan struct{})}
	h, err := v.Orch.Start(context.Background(), orchestrator.Spec{Upgrade: scenario.MySQLUpgrade(),
		Clusters: []*deploy.Cluster{{ID: "c0", Distance: 1, Representatives: []deploy.Node{rep}}}})
	if err != nil {
		t.Fatal(err)
	}
	<-rep.started
	journal := h.Status().Journal
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("running rollout's journal: %v", err)
	}
	close(rep.release)
	if out, err := h.Wait(context.Background()); err != nil || out.Integrated() != 1 {
		t.Fatalf("rollout: %v, outcome %+v", err, out)
	}
	if recs, err := rollout.Load(journal); err != nil || len(recs) == 0 || recs[len(recs)-1].Type != rollout.RecComplete {
		t.Fatalf("journal of the finished rollout: %d records, %v", len(recs), err)
	}
	v.Close()
	if _, err := os.Stat(filepath.Dir(journal)); !os.IsNotExist(err) {
		t.Fatalf("journal directory after Close: %v, want it gone", err)
	}
}

// slowNode takes its time over each member call, unless the rollout is
// stopped first; it signals each test it starts.
type slowNode struct {
	name    string
	started chan string
}

func (n *slowNode) Name() string { return n.name }
func (n *slowNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	if n.started != nil {
		n.started <- n.name
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(20 * time.Millisecond):
	}
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}
func (n *slowNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

// slowClusters is three one-member clusters of slow nodes.
func slowClusters(started chan string) []*deploy.Cluster {
	var cs []*deploy.Cluster
	for i := range 3 {
		cs = append(cs, &deploy.Cluster{ID: fmt.Sprintf("c%d", i), Distance: 1,
			Representatives: []deploy.Node{&slowNode{name: fmt.Sprintf("slow-%d", i), started: started}}})
	}
	return cs
}

// TestPrivateJournalKeptForSuspendedRollout: a rollout suspended in the
// private journal directory keeps its journal past Close, and a second
// vendor resumes it from there to the end.
func TestPrivateJournalKeptForSuspendedRollout(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the private directory lands in the test's own
	v, err := New(Options{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	started := make(chan string, 3)
	h, err := v.Orch.Start(context.Background(), orchestrator.Spec{Upgrade: scenario.MySQLUpgrade(),
		Clusters: slowClusters(started)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	h.Suspend()
	st := h.Status()
	if st.State != orchestrator.StateSuspended {
		t.Fatalf("state after Suspend = %s", st.State)
	}
	v.Close()
	if _, err := os.Stat(st.Journal); err != nil {
		t.Fatalf("suspended rollout's journal after Close: %v", err)
	}

	again, err := New(Options{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	h2, err := again.Orch.Start(context.Background(), orchestrator.Spec{Upgrade: scenario.MySQLUpgrade(),
		Clusters: slowClusters(nil), Journal: st.Journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := h2.Wait(context.Background()); err != nil || out.Integrated() != 3 {
		t.Fatalf("resumed rollout: %v, outcome %+v", err, out)
	}
	if recs, err := rollout.Load(st.Journal); err != nil || recs[len(recs)-1].Type != rollout.RecComplete {
		t.Fatalf("resumed journal: %d records, %v", len(recs), err)
	}
}

// faultyReports has every given machine validate the faulty upgrade in
// one unstaged rollout the vendor gives up on, booking their verdicts.
func faultyReports(t *testing.T, v *Vendor, machines []*machine.Machine) {
	t.Helper()
	var nodes []deploy.Node
	for _, m := range machines {
		nodes = append(nodes, v.Server.Node(m.Name))
	}
	if _, err := deployMySQL(t, v, orchestrator.Spec{Policy: deploy.PolicyNoStaging,
		Clusters: []*deploy.Cluster{{ID: "all", Distance: 1, Representatives: nodes}}}); err != nil {
		t.Fatal(err)
	}
}

func TestReproduceFromReportImage(t *testing.T) {
	v, machines := mysqlFleet(t)
	faultyReports(t, v, machines[2:3]) // u-php4-1
	rep := v.URR.Failures("mysql-5.0.22")[0]
	tr, err := Reproduce(rep)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ExitStatus() != "crash" {
		t.Fatalf("reproduction did not crash: %s", tr.ExitStatus())
	}
}

func TestReproduceErrors(t *testing.T) {
	if _, err := Reproduce(&report.Report{}); err == nil {
		t.Fatal("no error for image-less report")
	}
}

func TestURRGroupsFailuresAcrossFleet(t *testing.T) {
	v, machines := mysqlFleet(t)
	faultyReports(t, v, machines)
	// The URR must collapse the failures into exactly two failure modes,
	// and each group's representative report reproduces.
	groups := v.URR.GroupFailures("mysql-5.0.22")
	if len(groups) != 2 {
		t.Fatalf("failure modes = %d, want 2 (php crash, my.cnf crash)", len(groups))
	}
	for _, g := range groups {
		tr, err := Reproduce(g.Representative)
		if err != nil {
			t.Fatal(err)
		}
		if tr.ExitStatus() != "crash" {
			t.Fatalf("group %q did not reproduce", g.Signature)
		}
	}
}

// TestURRResumeKeepsFailures is the URR's crash acceptance: a vendor is
// killed right after the first debug round's fix record, and a restarted
// vendor — fresh orchestrator, empty URR, the same fleet — resumes the
// journal. Its URR lists the pre-crash failure mode with its reasons, and
// the image restored from the store beside the journal reproduces it.
func TestURRResumeKeepsFailures(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "r1.journal")
	spec := orchestrator.Spec{Fix: scenario.MySQLFix, Rebuild: scenario.MySQLRelease, Journal: journal}
	v, _ := mysqlFleet(t)
	if _, err := deployMySQL(t, v, spec); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	fix := strings.Index(string(b), `"type":"fix"`)
	if fix < 0 {
		t.Fatal("the rollout released no fix")
	}
	cut := fix + strings.IndexByte(string(b[fix:]), '\n') + 1
	if err := os.WriteFile(journal, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	restarted, _ := mysqlFleet(t)
	spec.Resume = true
	if _, err := deployMySQL(t, restarted, spec); err != nil {
		t.Fatal(err)
	}
	groups := restarted.URR.GroupFailures("mysql-5.0.22")
	if len(groups) == 0 {
		t.Fatal("the resumed vendor's URR lost the pre-crash failures")
	}
	for _, g := range groups {
		rep := g.Representative
		if len(rep.Reasons) == 0 || !strings.Contains(g.Signature, rep.Reasons[0]) {
			t.Fatalf("failure mode %q restored without its reasons: %+v", g.Signature, rep)
		}
		tr, err := Reproduce(rep)
		if err != nil {
			t.Fatal(err)
		}
		if tr.ExitStatus() != "crash" {
			t.Fatalf("restored image of %s does not reproduce %q: %s", rep.Machine, g.Signature, tr.ExitStatus())
		}
	}
}
