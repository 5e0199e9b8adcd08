// mirage-agent runs the user-machine side of a networked Mirage
// deployment: it builds one of the Table 2 machine configurations, dials
// the vendor and serves identification, tracing, fingerprinting,
// validation and integration commands until the vendor disconnects.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/agent"
	"repro/internal/logx"
	"repro/internal/scenario"
)

func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	connect := flag.String("connect", "127.0.0.1:7033", "vendor address")
	machineName := flag.String("machine", "ubt-ms4", "Table 2 machine configuration to impersonate (or 'list')")
	reconnect := flag.Bool("reconnect", true, "redial the vendor with backoff when the control channel drops, preserving identity and chunk cache; the agent exits once redials stop succeeding")
	reconnectAttempts := flag.Int("reconnect-attempts", 5, "consecutive failed redials before concluding the vendor is gone")
	peerListen := flag.String("peer-listen", "", "address to serve the chunk cache to peer agents on (e.g. 127.0.0.1:0; empty = peer serving disabled); the bound address is advertised to the vendor, which hints this agent to later waves once its wave gates")
	watch := flag.Duration("watch", 0, "re-fingerprint this machine at the given interval and push profile deltas to the vendor, so the control plane sees live drift (0 = disabled); an unchanged machine pushes nothing")
	sim := flag.Int("sim", 0, "scale harness: instead of one full agent, run this many protocol-faithful simulated agents (canned validation, shared chunk cache) against the vendor — thousands per process")
	simPrefix := flag.String("sim-prefix", "sim", "machine-name prefix for -sim agents (names are <prefix>-000000 ...)")
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *sim > 0 {
		fleet, err := agent.StartSimFleet(*sim, agent.SimOptions{
			Addr: *connect, Prefix: *simPrefix,
		})
		if err != nil {
			fatal("sim fleet failed to connect", "err", err)
		}
		slog.Info("sim fleet connected", "agents", *sim, "vendor", *connect, "prefix", *simPrefix)
		fleet.Wait()
		slog.Info("sim fleet done: vendor closed",
			"validations", fleet.Tested(), "integrations", fleet.Integrated())
		return
	}

	specs := scenario.MySQLTable2()
	if *machineName == "list" {
		var names []string
		for _, s := range specs {
			names = append(names, s.Name)
		}
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	var found *scenario.MySQLMachineSpec
	for i := range specs {
		if specs[i].Name == *machineName {
			found = &specs[i]
			break
		}
	}
	if found == nil {
		fmt.Fprintf(os.Stderr, "unknown machine %q (use -machine list)\n", *machineName)
		os.Exit(2)
	}

	m := scenario.BuildMySQLMachine(*found)
	a := agent.NewAgent(m)
	if *peerListen != "" {
		addr, err := a.ServePeers(*peerListen)
		if err != nil {
			fatal("peer serving failed", "agent", m.Name, "err", err)
		}
		defer a.ClosePeers()
		slog.Info("serving peer chunks", "agent", m.Name, "addr", addr)
	}
	if *watch > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go a.Watch(*connect, *watch, stop)
		slog.Info("watching for drift", "agent", m.Name, "interval", *watch)
	}
	slog.Info("connecting to vendor", "agent", m.Name, "vendor", *connect)
	if *reconnect {
		a.RunWithReconnect(*connect, agent.ReconnectConfig{MaxAttempts: *reconnectAttempts})
	} else if err := a.Run(*connect); err != nil {
		fatal("agent run failed", "agent", m.Name, "err", err)
	}
	ref, _ := m.Package("mysql")
	slog.Info("vendor closed the channel", "agent", m.Name, "mysql_version", ref.Version)
	cs := a.Cache.Stats()
	slog.Info("chunk cache", "agent", m.Name,
		"chunks", cs.Chunks, "bytes", cs.Bytes, "hits", cs.Hits, "misses", cs.Misses)
	if *peerListen != "" {
		ps := a.PeerStats()
		slog.Info("peer serving", "agent", m.Name,
			"requests", ps.Requests, "chunks", ps.Chunks, "bytes", ps.Bytes)
	}
}
