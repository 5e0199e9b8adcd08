package trace

import (
	"reflect"
	"testing"
)

func TestNewRecordsExec(t *testing.T) {
	tr := New("mysqld", "--port=3306")
	if len(tr.Events) != 1 || tr.Events[0].Op != OpExec || tr.Events[0].Path != "mysqld" {
		t.Fatalf("events = %+v", tr.Events)
	}
	if tr.Args[0] != "--port=3306" {
		t.Fatalf("args = %v", tr.Args)
	}
}

func TestAccessSequenceIncludesRepeats(t *testing.T) {
	tr := New("app")
	tr.Open("/a", ModeRead)
	tr.Open("/b", ModeRead)
	tr.Open("/a", ModeRead)
	want := []string{"/a", "/b", "/a"}
	if got := tr.AccessSequence(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AccessSequence = %v", got)
	}
}

func TestReadOnlyPaths(t *testing.T) {
	tr := New("app")
	tr.Open("/lib/libc.so", ModeRead)
	tr.Open("/var/log/app.log", ModeWrite)
	tr.Open("/etc/conf", ModeRead)
	tr.Open("/etc/conf", ModeReadWrite) // later rw open disqualifies
	tr.Open("/data", ModeRead)
	tr.Open("/data", ModeRead)

	ro := tr.ReadOnlyPaths()
	if !ro["/lib/libc.so"] || !ro["/data"] {
		t.Fatalf("read-only set missing entries: %v", ro)
	}
	if ro["/var/log/app.log"] || ro["/etc/conf"] {
		t.Fatalf("read-only set has written files: %v", ro)
	}
}

func TestReadOnlyDisqualificationBeforeReadOpen(t *testing.T) {
	tr := New("app")
	tr.Open("/f", ModeWrite)
	tr.Open("/f", ModeRead)
	if tr.ReadOnlyPaths()["/f"] {
		t.Fatal("write-then-read file classified read-only")
	}
}

func TestEnvVars(t *testing.T) {
	tr := New("app")
	tr.Getenv("HOME", "/root")
	tr.Getenv("PATH", "/bin")
	tr.Getenv("HOME", "/root")
	if got := tr.EnvVars(); !reflect.DeepEqual(got, []string{"HOME", "PATH"}) {
		t.Fatalf("EnvVars = %v", got)
	}
}

func TestOutputsAndExitStatus(t *testing.T) {
	tr := New("app")
	tr.Open("/out", ModeWrite)
	tr.Write("/out", []byte("result"))
	tr.NetSend([]byte("GET /"))
	tr.Append(Event{Op: OpRead, Path: "/in"})
	tr.Exit("ok")

	outs := tr.Outputs()
	if len(outs) != 3 {
		t.Fatalf("Outputs = %d events, want 3", len(outs))
	}
	if outs[0].Op != OpWrite || string(outs[0].Data) != "result" {
		t.Fatalf("first output = %+v", outs[0])
	}
	if tr.ExitStatus() != "ok" {
		t.Fatalf("ExitStatus = %q", tr.ExitStatus())
	}
	if New("x").ExitStatus() != "missing" {
		t.Fatal("missing exit not reported")
	}
}

func TestWriteCopiesPayload(t *testing.T) {
	tr := New("app")
	buf := []byte("abc")
	tr.Write("/f", buf)
	buf[0] = 'X'
	if string(tr.Events[1].Data) != "abc" {
		t.Fatal("Write aliases caller buffer")
	}
}

func TestCommonPrefix(t *testing.T) {
	t1 := New("app")
	for _, p := range []string{"/lib/libc.so", "/etc/conf", "/data/a"} {
		t1.Open(p, ModeRead)
	}
	t2 := New("app")
	for _, p := range []string{"/lib/libc.so", "/etc/conf", "/data/b"} {
		t2.Open(p, ModeRead)
	}
	got := CommonPrefix([]*Trace{t1, t2})
	if !reflect.DeepEqual(got, []string{"/lib/libc.so", "/etc/conf"}) {
		t.Fatalf("CommonPrefix = %v", got)
	}
}

func TestCommonPrefixEdgeCases(t *testing.T) {
	if CommonPrefix(nil) != nil {
		t.Fatal("CommonPrefix(nil) != nil")
	}
	t1 := New("app")
	t1.Open("/a", ModeRead)
	if got := CommonPrefix([]*Trace{t1}); !reflect.DeepEqual(got, []string{"/a"}) {
		t.Fatalf("single-trace prefix = %v", got)
	}
	t2 := New("app")
	t2.Open("/b", ModeRead)
	if got := CommonPrefix([]*Trace{t1, t2}); len(got) != 0 {
		t.Fatalf("disjoint prefix = %v", got)
	}
}

func TestOpAndModeStrings(t *testing.T) {
	if OpOpen.String() != "open" || OpExit.String() != "exit" {
		t.Fatal("Op strings wrong")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op empty string")
	}
	if ModeRead.String() != "ro" || ModeWrite.String() != "wo" || ModeReadWrite.String() != "rw" {
		t.Fatal("Mode strings wrong")
	}
}
