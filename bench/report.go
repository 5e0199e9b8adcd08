package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// header is the report's system-information block, after the benchexec
// exemplar: enough to tell two result files from different boxes apart.
type header struct {
	Date       string  `json:"date"`
	Host       string  `json:"host"`
	OS         string  `json:"os"`
	CPU        string  `json:"cpu"`
	Cores      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	RAMMB      float64 `json:"ram_mb"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	FDLimit    uint64  `json:"fd_soft_limit"`
	JournalFS  string  `json:"journal_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type fullReport struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

// procField returns the value of the first "key : value" line of a /proc
// file whose key matches.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fsType is the filesystem type of the mount holding dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) >= len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

// gitState is the checkout's commit and whether it has local changes;
// "unknown" outside a git checkout (the driver's is not one).
func gitState() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(st))) > 0
}

func newHeader(seed uint64, seconds float64, dir string) header {
	h := header{
		Date: time.Now().UTC().Format(time.RFC3339), OS: runtime.GOOS + "/" + runtime.GOARCH,
		CPU: procField("/proc/cpuinfo", "model name"), Cores: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), JournalFS: fsType(dir),
		Seed: seed, Seconds: seconds,
	}
	h.Host, _ = os.Hostname()
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.OS += " " + strings.TrimSpace(string(b))
	}
	var kb float64
	fmt.Sscanf(procField("/proc/meminfo", "MemTotal"), "%f kB", &kb)
	h.RAMMB = kb / 1024
	var rl syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl) == nil {
		h.FDLimit = rl.Cur
	}
	h.Commit, h.Dirty = gitState()
	return h
}

func printHeader(w io.Writer, h header) {
	commit := h.Commit
	if h.Dirty {
		commit += " (dirty)"
	}
	fmt.Fprintf(w, "   BENCHMARK INFORMATION\n")
	fmt.Fprintf(w, "%-24s %s\n", "benchmark:", "mirage bench (ISSUE 12)")
	fmt.Fprintf(w, "%-24s %s\n", "date:", h.Date)
	fmt.Fprintf(w, "%-24s %s\n", "commit:", commit)
	fmt.Fprintf(w, "%-24s %d\n", "seed:", h.Seed)
	fmt.Fprintf(w, "%-24s %g s per run, at least %d repetitions\n", "run length:", h.Seconds, minReps)
	fmt.Fprintf(w, "%-24s parallelism %d, worker budget %d, one rollout at a time (closed loop)\n", "load:", parallelism, workerBudget)
	fmt.Fprintf(w, "%s\n\n   SYSTEM INFORMATION\n", strings.Repeat("-", 60))
	fmt.Fprintf(w, "%-24s %s\n", "host:", h.Host)
	fmt.Fprintf(w, "%-24s %s\n", "os:", h.OS)
	fmt.Fprintf(w, "%-24s %s\n", "cpu:", h.CPU)
	fmt.Fprintf(w, "%-24s %d (GOMAXPROCS %d)\n", "- cores:", h.Cores, h.GOMAXPROCS)
	fmt.Fprintf(w, "%-24s %.0f MB\n", "ram:", h.RAMMB)
	fmt.Fprintf(w, "%-24s %s\n", "go:", h.Go)
	fmt.Fprintf(w, "%-24s %d\n", "fd soft limit:", h.FDLimit)
	fmt.Fprintf(w, "%-24s %s\n", "journal filesystem:", h.JournalFS)
	fmt.Fprintf(w, "%s\n\n", strings.Repeat("-", 60))
}

// printMetrics prints one metric table; per-layer rows end with where the
// number comes from (P, T, M, C).
func printMetrics(w io.Writer, title string, ms []metricValue) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-38s %-6s %14s %14s %14s %4s\n", title, "unit", "median", "min", "max", "k")
	for _, m := range ms {
		src := ""
		if l := layerDefOf(m.Name); l != nil {
			src = "  " + l.Src
		}
		fmt.Fprintf(w, "  %-38s %-6s %14.6g %14.6g %14.6g %4d%s\n", m.Name, m.Unit, m.Median, m.Min, m.Max, m.K, src)
	}
}

// printWorkload prints one workload's row and its metric tables.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "%-16s status %-18s wall %7.2f s   k %d   attempted %d   failed %d\n",
		r.Workload, r.Status, r.WallS, r.K, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", r.Error)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failed check: %s\n", f)
	}
	printMetrics(w, "end-to-end metric", r.EndToEnd)
	printMetrics(w, "per-layer metric (src P/T/M/C)", r.PerLayer)
	if len(r.Costs) > 0 {
		fmt.Fprintf(w, "  %-38s %14s\n", "seam (traced repetition)", "busy us/member")
		for _, c := range r.Costs {
			fmt.Fprintf(w, "  %-38s %14.2f   %s\n", c.Seam, c.UsPerMember, c.How)
		}
	}
	fmt.Fprintln(w)
}
