package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/deploy"
	"repro/internal/report"
	"repro/internal/rollout"
)

// urr answers the Upgrade Report Repository's queries (see the command's
// usage) offline, from a rollout's journal and the image store beside it.
func urr(args []string, w io.Writer) error {
	if len(args) != 3 {
		return errors.New("usage: mirage-ctl urr summary|failures <journal> <upgrade> | urr image <journal> <machine>")
	}
	cmd, journal, arg := args[0], args[1], args[2]
	records, err := rollout.Load(journal)
	if err != nil {
		return err
	}
	if cmd == "image" {
		return printImage(w, journal, records, arg)
	}
	u := report.New()
	if err := rollout.FoldURR(u, journal, records); err != nil {
		return err
	}
	switch cmd {
	case "summary":
		s, f := u.Summary(arg)
		fmt.Fprintf(w, "upgrade %s: %d success, %d failure (of %d reports total)\n", arg, s, f, u.Len())
	case "failures":
		for _, g := range u.GroupFailures(arg) {
			fmt.Fprintf(w, "failure mode: %s\n", g.Signature)
			fmt.Fprintf(w, "  reports: %d across clusters %v\n", len(g.Reports), g.Clusters)
			fmt.Fprintf(w, "  representative: %s\n", g.Representative.Machine)
			for i, reason := range g.Representative.Reasons {
				fmt.Fprintf(w, "  reason[%d]: %s\n", i, reason)
			}
		}
	default:
		return fmt.Errorf("unknown urr query %q (want summary, failures or image)", cmd)
	}
	return nil
}

// printImage materializes the image of the machine's latest failing
// verdict in the journal into a textual machine description.
func printImage(w io.Writer, journal string, records []rollout.Record, machine string) error {
	addr := ""
	for _, r := range records {
		if r.Type == deploy.RecTested && r.Node == machine && r.Failure != nil && r.Failure.Image != "" {
			addr = r.Failure.Image
		}
	}
	if addr == "" {
		return fmt.Errorf("journal %s holds no failure image of %s (passing verdicts carry none)", journal, machine)
	}
	img, err := report.LoadImage(report.ImageDir(filepath.Dir(journal)), addr)
	if err != nil {
		return err
	}
	m := img.Materialize()
	fmt.Fprintf(w, "machine %s (%d files, %d packages)\n", m.Name, len(m.Paths()), len(m.Packages()))
	for _, ref := range m.Packages() {
		fmt.Fprintf(w, "  package %s\n", ref)
	}
	for _, p := range m.Paths() {
		f := m.ReadFile(p)
		ver := f.Version
		if ver == "" {
			ver = "-"
		}
		fmt.Fprintf(w, "  %-50s %-10s %8d bytes  v%s\n", p, f.Type, len(f.Data), ver)
	}
	return nil
}
