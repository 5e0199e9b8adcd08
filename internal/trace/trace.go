// Package trace models the system-call traces Mirage collects by
// instrumenting process creation, read, write, file-descriptor and
// socket-related system calls, plus getenv() interception in libc
// (paper §3.2.3, "Identifying environmental resources", and §3.3,
// "Tracing subsystem").
//
// On a real deployment these events come from ptrace/LD_PRELOAD
// interposition; in this reproduction the application models in
// internal/apps emit the same event streams when executed against a
// simulated machine. All downstream consumers — the identification
// heuristic in internal/envid and the validation subsystem in
// internal/vmtest — operate only on these logs, so they are agnostic to
// whether the trace came from real instrumentation or the simulator.
//
// Not to be confused with internal/telemetry, the control plane's
// operational observability layer (latency histograms and per-rollout
// span traces). This package records what an upgrade does to a user
// machine; telemetry records what the deployment system itself does.
package trace

import "fmt"

// Op enumerates the instrumented operations.
type Op int

const (
	OpExec    Op = iota // process creation (execve)
	OpOpen              // file open, with access mode
	OpRead              // file read
	OpWrite             // file write, payload recorded
	OpGetenv            // environment variable lookup
	OpSocket            // socket creation
	OpNetSend           // network write, payload recorded
	OpNetRecv           // network read
	OpExit              // process exit, status recorded
)

var opNames = [...]string{"exec", "open", "read", "write", "getenv", "socket", "netsend", "netrecv", "exit"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Mode is the access mode of an open.
type Mode int

const (
	ModeRead Mode = iota
	ModeWrite
	ModeReadWrite
)

func (m Mode) String() string {
	switch m {
	case ModeRead:
		return "ro"
	case ModeWrite:
		return "wo"
	default:
		return "rw"
	}
}

// Event is one instrumented operation.
type Event struct {
	Op   Op
	Path string // file and exec operations
	Mode Mode   // open operations
	Env  string // getenv: variable name
	Data []byte // write/netsend payload; getenv result; exit status
}

// Trace is the event log of one application execution.
type Trace struct {
	App    string   // application name
	Args   []string // process arguments, recorded at exec
	Events []Event
}

// New returns an empty trace for one run of app.
func New(app string, args ...string) *Trace {
	return &Trace{App: app, Args: args, Events: []Event{{Op: OpExec, Path: app}}}
}

// Append adds an event.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Open records a file open.
func (t *Trace) Open(path string, mode Mode) {
	t.Append(Event{Op: OpOpen, Path: path, Mode: mode})
}

// Write records a file write with its payload.
func (t *Trace) Write(path string, data []byte) {
	t.Append(Event{Op: OpWrite, Path: path, Data: append([]byte(nil), data...)})
}

// Getenv records an environment lookup and its result.
func (t *Trace) Getenv(name, value string) {
	t.Append(Event{Op: OpGetenv, Env: name, Data: []byte(value)})
}

// NetSend records a network write with its payload.
func (t *Trace) NetSend(data []byte) {
	t.Append(Event{Op: OpNetSend, Data: append([]byte(nil), data...)})
}

// Exit records process termination with a status string ("ok", "crash", ...).
func (t *Trace) Exit(status string) {
	t.Append(Event{Op: OpExit, Data: []byte(status)})
}

// AccessSequence returns the paths of file operations in event order,
// including repeats. This is the sequence the heuristic's first part
// compares across traces to find the initialization phase.
func (t *Trace) AccessSequence() []string {
	var seq []string
	for _, e := range t.Events {
		if e.Op == OpOpen {
			seq = append(seq, e.Path)
		}
	}
	return seq
}

// ReadOnlyPaths returns the paths that were opened in this trace and never
// opened for writing.
func (t *Trace) ReadOnlyPaths() map[string]bool {
	ro := make(map[string]bool)
	for _, e := range t.Events {
		if e.Op != OpOpen {
			continue
		}
		if e.Mode == ModeRead {
			if _, dirty := ro[e.Path]; !dirty {
				ro[e.Path] = true
			}
		} else {
			ro[e.Path] = false
		}
	}
	out := make(map[string]bool)
	for p, isRO := range ro {
		if isRO {
			out[p] = true
		}
	}
	return out
}

// AccessedPaths returns the set of all opened paths.
func (t *Trace) AccessedPaths() map[string]bool {
	out := make(map[string]bool)
	for _, e := range t.Events {
		if e.Op == OpOpen {
			out[e.Path] = true
		}
	}
	return out
}

// EnvVars returns the names of all environment variables read.
func (t *Trace) EnvVars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range t.Events {
		if e.Op == OpGetenv && !seen[e.Env] {
			seen[e.Env] = true
			out = append(out, e.Env)
		}
	}
	return out
}

// Outputs returns the observable outputs of the run — file writes, network
// sends and the exit event — in order. The validation subsystem compares
// these between the pre-upgrade and post-upgrade runs.
func (t *Trace) Outputs() []Event {
	var out []Event
	for _, e := range t.Events {
		switch e.Op {
		case OpWrite, OpNetSend, OpExit:
			out = append(out, e)
		}
	}
	return out
}

// ExitStatus returns the recorded exit status, or "missing" if the trace
// has no exit event (the process was killed or crashed before exit).
func (t *Trace) ExitStatus() string {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if t.Events[i].Op == OpExit {
			return string(t.Events[i].Data)
		}
	}
	return "missing"
}

// CommonPrefix returns the longest common prefix of the access sequences of
// all traces: the paper's heuristic part (1), which identifies the
// single-threaded initialization phase during which applications load
// libraries, configuration files and environment variables.
func CommonPrefix(traces []*Trace) []string {
	if len(traces) == 0 {
		return nil
	}
	prefix := traces[0].AccessSequence()
	for _, t := range traces[1:] {
		seq := t.AccessSequence()
		n := 0
		for n < len(prefix) && n < len(seq) && prefix[n] == seq[n] {
			n++
		}
		prefix = prefix[:n]
	}
	return prefix
}
