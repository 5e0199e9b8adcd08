// Package core assembles the networked vendor: the paper's one vendor
// role — enrol a fleet, fingerprint and cluster it (§3.2), stage the
// upgrade and debug what comes back (§4.3) — wired once from the layers
// that implement it. A Vendor owns the transport server agents register
// with, the rollout orchestrator with its worker budget, the telemetry
// registry and tracer they share, the report repository, and (once the
// fleet is profiled) the live drift monitor, together with the hooks that
// tie them: the profile-delta bridge from agents to rollout gating and
// the controller hooks every rollout needs.
//
// The assembly is application-agnostic: callers describe the managed
// application with an App and supply the upgrade artifacts and debugging
// loop in each rollout's orchestrator.Spec. cmd/mirage-vendor, the chaos
// harness and the examples all construct this type; none wires the layers
// by hand.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/fleetwatch"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options are the vendor's deployment settings; each mirrors a
// mirage-vendor flag.
type Options struct {
	Listen       string // -listen: address agents register at
	JournalDir   string // -journal-dir: per-rollout journals ("" = a private directory New makes and Close removes)
	WorkerBudget int    // -worker-budget: in-flight member RPCs across all rollouts (0 = unlimited)
	MaxActive    int    // -max-rollouts: concurrently executing rollouts (0 = unbounded)
	MaxQueued    int    // -max-queued: rollouts waiting for an execution slot
}

// App describes the application whose fleet the vendor profiles: the
// environmental resource references to fingerprint, the parser registry
// (in its wire form, since agents build it too) and the reference machine
// every user machine is diffed against.
type App struct {
	Name      string
	Refs      []string
	Registry  parser.RegistryConfig
	Reference *machine.Machine
}

// referenceItems fingerprints the reference machine — the item list sent
// to every agent for comparison.
func (a App) referenceItems() (*resource.Set, error) {
	reg, err := parser.BuildRegistry(a.Registry)
	if err != nil {
		return nil, fmt.Errorf("core: building parser registry: %w", err)
	}
	return parser.NewFingerprinter(reg).Fingerprint(a.Reference, a.Refs), nil
}

// Vendor is one assembled networked vendor.
type Vendor struct {
	Server *transport.Server
	Orch   *orchestrator.Orchestrator
	URR    *report.URR

	// fleet is published by Profile; the delta bridge, the controller
	// hooks and the admin API read it from other goroutines.
	fleet atomic.Pointer[profiledFleet]
	// privateJournals is the journal directory New made because Options
	// named none; Close removes it.
	privateJournals string
}

// profiledFleet is what Profile leaves behind: the live monitor plus what
// a full re-fingerprint needs.
type profiledFleet struct {
	app         App
	vendorItems *resource.Set
	monitor     *fleetwatch.Monitor
}

// New listens for agents and builds the control plane around the server:
// one telemetry registry and tracer shared by transport and orchestrator,
// the vendor-wide worker budget, and the profile-delta bridge — installed
// before the first agent can push, so an early delta gets a clean "not
// yet" error instead of a race. Every rollout is journaled: without
// Options.JournalDir the journals go to a private temporary directory.
func New(opts Options) (*Vendor, error) {
	srv, err := transport.ListenWith(opts.Listen, transport.ListenOpts{})
	if err != nil {
		return nil, err
	}
	dir, private := opts.JournalDir, ""
	if dir == "" {
		if dir, err = os.MkdirTemp("", "mirage-journals-"); err != nil {
			srv.Close()
			return nil, fmt.Errorf("core: journal directory: %w", err)
		}
		private = dir
	}
	orch := orchestrator.New(dir)
	orch.Budget = deploy.NewBudget(opts.WorkerBudget)
	orch.MaxActive = opts.MaxActive
	orch.MaxQueued = opts.MaxQueued
	orch.Telemetry = telemetry.NewRegistry()
	orch.Tracer = &telemetry.Tracer{}
	srv.Telemetry = orch.Telemetry
	v := &Vendor{Server: srv, Orch: orch, URR: report.New(), privateJournals: private}
	srv.OnProfileDelta = v.onProfileDelta
	return v, nil
}

// Close shuts the transport server down — every agent session ends with
// it — and removes the private journal directory New made, if any.
func (v *Vendor) Close() error {
	err := v.Server.Close()
	if v.privateJournals != "" {
		os.RemoveAll(v.privateJournals) //nolint:errcheck — best-effort cleanup of scratch journals
	}
	return err
}

// Monitor returns the live drift monitor, nil until Profile has run.
func (v *Vendor) Monitor() *fleetwatch.Monitor {
	if f := v.fleet.Load(); f != nil {
		return f.monitor
	}
	return nil
}

var errNotProfiled = errors.New("fleet not profiled yet")

// Enroll has each named agent identify app's environmental resources under
// the workloads and record a baseline trace of the first one — the usage
// store later validations replay.
func (v *Vendor) Enroll(ctx context.Context, app string, workloads [][]string, agents []string) error {
	for _, name := range agents {
		if _, err := v.Server.Identify(ctx, name, app, workloads); err != nil {
			return fmt.Errorf("core: identify %s on %s: %w", app, name, err)
		}
		if _, err := v.Server.Record(ctx, name, app, workloads[0]); err != nil {
			return fmt.Errorf("core: record %s on %s: %w", app, name, err)
		}
	}
	return nil
}

// Profile fingerprints every registered agent against app's reference,
// clusters the fleet and starts the live drift monitor on the result. It
// returns the monitor's clusters of deployment, one representative per
// cluster, which the monitor then protects. From here on agents' profile
// deltas fold into the monitor and reach running rollouts.
func (v *Vendor) Profile(ctx context.Context, app App, cfg cluster.Config) ([]*deploy.Cluster, error) {
	items, err := app.referenceItems()
	if err != nil {
		return nil, err
	}
	fps, err := v.Server.FingerprintAll(ctx, app.Name, app.Refs, app.Registry, items)
	if err != nil {
		return nil, err
	}
	m := fleetwatch.NewMonitor(cluster.BuildSnapshot(cfg, fps), v.Orch.Telemetry)
	dcs, err := m.DeployClusters(v.node)
	if err != nil {
		return nil, err
	}
	v.fleet.Store(&profiledFleet{app: app, vendorItems: items, monitor: m})
	return dcs, nil
}

// node resolves a clustered machine to its agent's deployment node.
func (v *Vendor) node(name string) deploy.Node { return v.Server.Node(name) }

// onProfileDelta is the delta bridge (transport.Server.OnProfileDelta): a
// watch-mode agent's push, metered at the wireBytes its frame took, folds
// into the monitor; a push the monitor cannot fold asks the agent for its
// full profile; a fold that moved the machine reaches every running
// rollout as a drift event.
func (v *Vendor) onProfileDelta(req *link.ProfileDeltaReq, wireBytes int) (resync bool, err error) {
	m := v.Monitor()
	if m == nil {
		return false, errNotProfiled
	}
	m.ObserveDeltaBytes(wireBytes, req.Full)
	ev, err := m.ApplyDelta(req.Machine, req.AppSet,
		link.ItemsFromWire(req.Added).Items(),
		link.ItemsFromWire(req.Removed).Items(), req.Sig, req.Full)
	if err != nil {
		var rs *fleetwatch.ErrResync
		if errors.As(err, &rs) {
			return true, nil
		}
		return false, err
	}
	if ev.Class != fleetwatch.ClassStable {
		slog.Info("fleet drift", "machine", ev.Machine, "class", string(ev.Class),
			"from", ev.From, "to", ev.To, "view", ev.Version)
		v.Orch.NotifyDrift(orchestrator.DriftEvent{
			Machine: ev.Machine, Cluster: ev.From, To: ev.To,
			Class: string(ev.Class), Version: ev.Version,
		})
	}
	return false, nil
}

// Spec finishes a rollout spec with what only the assembly knows. The
// controller books the server's transfer counters and rollback mode; each
// gated wave's members become peer chunk servers for the waves that
// follow, and the drift monitor treats their clusters as rep-invalidated
// on any member change — one hook feeding both the swarm tier and drift
// classification. Forgetting GatedMembers silently disables the peer
// tier and forgetting RollbackMode misbooks rolled-back chunks, which is
// why no caller installs them by hand. The spec's own Configure still
// runs, after the hooks; its URR defaults to the vendor's and its Restage
// to the monitor's clusters of deployment over the current fleet view,
// whose representatives the monitor then protects, clearing the drift
// flags the restaged plan has absorbed.
func (v *Vendor) Spec(spec orchestrator.Spec) orchestrator.Spec {
	configure := spec.Configure
	spec.Configure = func(ctl *deploy.Controller) {
		ctl.Transfer = v.Server.TransferSnapshot
		ctl.GatedMembers = func(names []string) {
			v.Server.MarkPeerEligible(names)
			if m := v.Monitor(); m != nil {
				m.MarkGated(names)
			}
		}
		ctl.RollbackMode = v.Server.SetRollbackMode
		if configure != nil {
			configure(ctl)
		}
	}
	if spec.URR == nil {
		spec.URR = v.URR
	}
	if spec.Restage == nil {
		spec.Restage = func() ([]*deploy.Cluster, error) {
			m := v.Monitor()
			if m == nil {
				return nil, errNotProfiled
			}
			dcs, err := m.DeployClusters(v.node)
			if err == nil {
				// The restaged plan is drawn from the view the drift
				// produced: no verdict of it depends on the drift flags.
				m.ClearDrift()
			}
			return dcs, err
		}
	}
	return spec
}

// API returns the HTTP admin surface over the vendor's orchestrator:
// rollouts started over HTTP get launch's spec, finished by Spec, and run
// under base; GET /fleet/drift serves the monitor's view and POST
// /fleet/refresh re-fingerprints every registered agent into a fresh one
// (drift flags reset — the new view is ground truth, not a delta).
func (v *Vendor) API(base context.Context, launch orchestrator.Launcher) *orchestrator.API {
	return &orchestrator.API{
		Orch: v.Orch,
		Base: base,
		Launch: func(req orchestrator.StartRequest) (orchestrator.Spec, error) {
			spec, err := launch(req)
			if err != nil {
				return spec, err
			}
			return v.Spec(spec), nil
		},
		FleetDrift: func() (any, error) {
			m := v.Monitor()
			if m == nil {
				return nil, errNotProfiled
			}
			return m.View(), nil
		},
		FleetRefresh: func() (any, error) {
			f := v.fleet.Load()
			if f == nil {
				return nil, errNotProfiled
			}
			fps, err := v.Server.FingerprintAll(base, f.app.Name, f.app.Refs, f.app.Registry, f.vendorItems)
			if err != nil {
				return nil, err
			}
			view := f.monitor.Refresh(fps)
			slog.Info("fleet refreshed", "view", view.Version, "machines", view.Machines, "clusters", len(view.Clusters))
			return view, nil
		},
	}
}

// Reproduce is the vendor's half of the reporting subsystem: it
// materializes the machine image a failed validation reported into a
// local machine and re-runs the application that failed there, returning
// the trace — the failure, reproduced on the vendor's bench.
func Reproduce(r *report.Report) (*trace.Trace, error) {
	if r.Image == nil {
		return nil, fmt.Errorf("core: report of %s has no image", r.Machine)
	}
	if len(r.FailedApps) == 0 {
		return nil, fmt.Errorf("core: report of %s has no failed applications", r.Machine)
	}
	model := apps.Lookup(r.FailedApps[0])
	if model == nil {
		return nil, fmt.Errorf("core: no model for application %q", r.FailedApps[0])
	}
	return model.Run(r.Image.Materialize(), nil), nil
}
