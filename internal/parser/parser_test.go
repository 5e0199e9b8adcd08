package parser

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/resource"
)

func mkfile(p string, t machine.FileType, data string) *machine.File {
	return &machine.File{Path: p, Type: t, Data: []byte(data)}
}

func TestExecutableParserSingleItem(t *testing.T) {
	f := mkfile("/usr/bin/mysqld", machine.TypeExecutable, "ELF binary payload")
	items := ExecutableParser{}.Parse(f)
	if len(items) != 1 {
		t.Fatalf("got %d items, want 1", len(items))
	}
	if items[0].Key != "/usr/bin/mysqld" || items[0].Kind != resource.Parsed {
		t.Fatalf("item = %+v", items[0])
	}
	f2 := mkfile("/usr/bin/mysqld", machine.TypeExecutable, "different payload")
	if (ExecutableParser{}).Parse(f2)[0].Hash == items[0].Hash {
		t.Fatal("different content, same hash")
	}
}

func TestSharedLibParserEmbedsVersion(t *testing.T) {
	f := mkfile("/lib/libc.so", machine.TypeSharedLib, "libc code")
	f.Version = "2.4"
	items := SharedLibParser{}.Parse(f)
	if len(items) != 1 || items[0].Key != "/lib/libc.so.2.4" {
		t.Fatalf("items = %+v", items)
	}
	// The vendor can discard the hash suffix but keep the version by
	// matching the key prefix — verify the key structure supports that.
	if !items[0].Prefix("/lib/libc.so.2.4") {
		t.Fatal("version prefix not matchable")
	}
	f.Version = ""
	if got := (SharedLibParser{}).Parse(f)[0].Key; got != "/lib/libc.so.unversioned" {
		t.Fatalf("unversioned key = %q", got)
	}
}

func TestTextParserPerLine(t *testing.T) {
	f := mkfile("/srv/www/index.php", machine.TypeText, "<?php\necho 'hi';\n\n?>")
	items := TextParser{}.Parse(f)
	if len(items) != 3 { // empty line skipped
		t.Fatalf("got %d items, want 3", len(items))
	}
	if items[0].Key != "/srv/www/index.php.line1" {
		t.Fatalf("key = %q", items[0].Key)
	}
	// A one-line edit changes exactly one item.
	f2 := mkfile("/srv/www/index.php", machine.TypeText, "<?php\necho 'bye';\n\n?>")
	items2 := TextParser{}.Parse(f2)
	diff := 0
	for i := range items {
		if items[i] != items2[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("one-line edit changed %d items, want 1", diff)
	}
}

const sampleCnf = `# MySQL configuration
[mysqld]
port = 3306
datadir = /var/lib/mysql
; another comment style
[client]
socket = /tmp/mysql.sock
`

func TestConfigParserSectionsAndKeys(t *testing.T) {
	f := mkfile("/etc/mysql/my.cnf", machine.TypeConfig, sampleCnf)
	items := ConfigParser{}.Parse(f)
	keys := make(map[string]bool)
	for _, it := range items {
		keys[it.Key] = true
	}
	for _, want := range []string{
		"/etc/mysql/my.cnf.mysqld.port",
		"/etc/mysql/my.cnf.mysqld.datadir",
		"/etc/mysql/my.cnf.client.socket",
	} {
		if !keys[want] {
			t.Errorf("missing item key %q (have %v)", want, keys)
		}
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
}

func TestConfigParserIgnoresComments(t *testing.T) {
	// Machines that differ only in comments must produce identical items —
	// this is what makes parser-aided clustering sound for the
	// comment-added/comment-deleted machines of Table 2.
	withComments := mkfile("/etc/my.cnf", machine.TypeConfig, sampleCnf)
	stripped := mkfile("/etc/my.cnf", machine.TypeConfig,
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\n[client]\nsocket = /tmp/mysql.sock\n")
	a := ConfigParser{}.Parse(withComments)
	b := ConfigParser{}.Parse(stripped)
	as, bs := resource.NewSet(0), resource.NewSet(0)
	for _, it := range a {
		as.Add(it)
	}
	for _, it := range b {
		bs.Add(it)
	}
	if !as.Equal(bs) {
		t.Fatal("comment-only difference produced differing item sets")
	}
}

func TestConfigParserValueChangeChangesItem(t *testing.T) {
	a := ConfigParser{}.Parse(mkfile("/etc/my.cnf", machine.TypeConfig, "[mysqld]\nport = 3306\n"))
	b := ConfigParser{}.Parse(mkfile("/etc/my.cnf", machine.TypeConfig, "[mysqld]\nport = 3307\n"))
	if a[0].Key != b[0].Key {
		t.Fatal("same key expected")
	}
	if a[0].Hash == b[0].Hash {
		t.Fatal("value change did not change hash")
	}
}

func TestConfigParserIgnoreKeys(t *testing.T) {
	p := ConfigParser{IgnoreKeys: []string{"last_window_x", "Timestamp"}}
	f := mkfile("/prefs.js", machine.TypeConfig,
		"last_window_x = 1024\ntimestamp = 99\njavascript.enabled = true\n")
	items := p.Parse(f)
	if len(items) != 1 || !strings.Contains(items[0].Key, "javascript.enabled") {
		t.Fatalf("items = %+v", items)
	}
}

func TestConfigParserColonSeparator(t *testing.T) {
	items := ConfigParser{}.Parse(mkfile("/etc/app.conf", machine.TypeConfig, "key: value\n"))
	if len(items) != 1 || items[0].Key != "/etc/app.conf.global.key" {
		t.Fatalf("items = %+v", items)
	}
}

func TestBinaryParserParsedChunks(t *testing.T) {
	data := strings.Repeat("font glyph data ", 1000)
	items := BinaryParser{}.Parse(mkfile("/fonts/a.ttf", machine.TypeBinary, data))
	if len(items) == 0 {
		t.Fatal("no items")
	}
	for _, it := range items {
		if it.Kind != resource.Parsed {
			t.Fatalf("binary parser produced %v item", it.Kind)
		}
	}
}

func TestContentFingerprintKind(t *testing.T) {
	data := strings.Repeat("opaque ", 2000)
	items := ContentFingerprint(mkfile("/blob", machine.TypeData, data))
	if len(items) == 0 {
		t.Fatal("no items")
	}
	for _, it := range items {
		if it.Kind != resource.Content {
			t.Fatalf("content fingerprint produced %v item", it.Kind)
		}
		if it.Key != "/blob" {
			t.Fatalf("content key = %q", it.Key)
		}
	}
}

// TestContentItemsCoverWholeChunks: flipping the midpoint byte of any
// chunk of a multi-chunk file changes that chunk's CHUNK_HASH item and no
// other — the item digests the whole chunk, not the window at its cut.
func TestContentItemsCoverWholeChunks(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(11)).Read(data)
	items := ContentFingerprint(&machine.File{Path: "/blob", Type: machine.TypeData, Data: data})
	chunks := fingerprint.Split(data)
	if len(chunks) < 4 {
		t.Fatalf("%d chunks, want a multi-chunk file", len(chunks))
	}
	for i, ch := range chunks {
		edited := bytes.Clone(data)
		edited[ch.Offset+ch.Length/2] ^= 0xFF
		got := ContentFingerprint(&machine.File{Path: "/blob", Type: machine.TypeData, Data: edited})
		if len(got) != len(items) {
			t.Fatalf("flip in chunk %d: %d items, want %d", i, len(got), len(items))
		}
		for j := range items {
			if changed := got[j] != items[j]; changed != (j == i) {
				t.Fatalf("flip in chunk %d: item %d changed = %v", i, j, changed)
			}
		}
	}
}

// TestMidChunkEditSplitsClusters: two machines whose unparsed resource
// differs only in the middle of one chunk fall into different clusters at
// diameter 0.
func TestMidChunkEditSplitsClusters(t *testing.T) {
	const path = "/opt/app/blob"
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(12)).Read(data)
	ch := fingerprint.Split(data)[1]
	edited := bytes.Clone(data)
	edited[ch.Offset+ch.Length/2] ^= 0x01

	fp := NewFingerprinter(NewRegistry())
	refs := []string{path}
	vendor := machine.New("vendor")
	vendor.WriteFile(&machine.File{Path: path, Type: machine.TypeData, Data: data})
	vendorItems := fp.Fingerprint(vendor, refs)
	var fps []cluster.MachineFingerprint
	for name, content := range map[string][]byte{"same": data, "edited": edited} {
		m := machine.New(name)
		m.WriteFile(&machine.File{Path: path, Type: machine.TypeData, Data: content})
		fps = append(fps, cluster.NewMachineFingerprint(name, fp.Fingerprint(m, refs), vendorItems, "app"))
	}
	if got := cluster.Run(cluster.Config{Diameter: 0}, fps); len(got) != 2 {
		t.Fatalf("%d clusters, want the edited machine apart", len(got))
	}
}

func TestRegistryPrecedence(t *testing.T) {
	r := NewRegistry()
	r.RegisterType(machine.TypeConfig, TextParser{})
	r.RegisterGlob("/etc/mysql/*", ConfigParser{})
	r.RegisterPath("/etc/mysql/my.cnf", ExecutableParser{})

	f := mkfile("/etc/mysql/my.cnf", machine.TypeConfig, "x")
	if got, ok := r.Lookup(f).(ExecutableParser); !ok {
		t.Fatalf("exact path lookup = %T, want ExecutableParser", got)
	}
	f2 := mkfile("/etc/mysql/other.cnf", machine.TypeConfig, "x")
	if got, ok := r.Lookup(f2).(ConfigParser); !ok {
		t.Fatalf("glob lookup = %T, want ConfigParser", got)
	}
	f3 := mkfile("/home/u/.conf", machine.TypeConfig, "x")
	if got, ok := r.Lookup(f3).(TextParser); !ok {
		t.Fatalf("type lookup = %T, want TextParser", got)
	}
	f4 := mkfile("/blob", machine.TypeData, "x")
	if r.Lookup(f4) != nil {
		t.Fatal("unmatched file got a parser")
	}
}

func TestRegistryBadGlobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegistry().RegisterGlob("[", TextParser{})
}

func TestMirageRegistryCoverage(t *testing.T) {
	r := MirageRegistry()
	if r.Lookup(mkfile("/bin/x", machine.TypeExecutable, "")) == nil {
		t.Fatal("no executable parser")
	}
	if r.Lookup(mkfile("/lib/libc.so", machine.TypeSharedLib, "")) == nil {
		t.Fatal("no sharedlib parser")
	}
	if r.Lookup(mkfile("/etc/host.conf", machine.TypeConfig, "")) == nil {
		t.Fatal("no system-wide config parser")
	}
	// Application config in a subdirectory is NOT covered by Mirage-
	// supplied parsers — this gap drives Figures 7 and 9.
	if r.Lookup(mkfile("/etc/mysql/my.cnf", machine.TypeConfig, "")) != nil {
		t.Fatal("application config unexpectedly covered")
	}
}

func TestRegistryClone(t *testing.T) {
	base := MirageRegistry()
	c := base.Clone()
	c.RegisterPath("/etc/mysql/my.cnf", ConfigParser{})
	if base.Lookup(mkfile("/etc/mysql/my.cnf", machine.TypeConfig, "")) != nil {
		t.Fatal("Clone shares state with original")
	}
	if c.Lookup(mkfile("/etc/mysql/my.cnf", machine.TypeConfig, "")) == nil {
		t.Fatal("Clone lost registration")
	}
}

func TestFingerprintMachine(t *testing.T) {
	m := machine.New("m")
	m.WriteFile(mkfile("/bin/app", machine.TypeExecutable, "binary"))
	m.WriteFile(mkfile("/etc/app/app.cnf", machine.TypeConfig, "[s]\nk=v\n"))
	m.SetEnv("APP_HOME", "/opt/app")

	fp := NewFingerprinter(MirageRegistry())
	set := fp.Fingerprint(m, []string{"/bin/app", "/etc/app/app.cnf", "env:APP_HOME", "/missing"})
	if set.Len() == 0 {
		t.Fatal("empty fingerprint")
	}
	// /bin/app -> 1 parsed; app.cnf -> content items; env -> 1 parsed.
	parsed := set.OfKind(resource.Parsed)
	content := set.OfKind(resource.Content)
	if parsed.Len() != 2 {
		t.Fatalf("parsed items = %d, want 2 (%v)", parsed.Len(), parsed.Items())
	}
	if content.Len() == 0 {
		t.Fatal("config without vendor parser should be content-fingerprinted")
	}
}

func TestFingerprintEnvUnset(t *testing.T) {
	m := machine.New("m")
	fp := NewFingerprinter(MirageRegistry())
	set := fp.Fingerprint(m, []string{"env:MISSING"})
	if set.Len() != 0 {
		t.Fatalf("unset env produced %d items", set.Len())
	}
}

func TestFingerprintDiffDetectsUpgradeRelevantChange(t *testing.T) {
	vendorMachine := machine.New("vendor")
	vendorMachine.WriteFile(mkfile("/lib/libmysql.so", machine.TypeSharedLib, "v4 code"))
	user := machine.New("user")
	user.WriteFile(mkfile("/lib/libmysql.so", machine.TypeSharedLib, "v5 code"))

	fp := NewFingerprinter(MirageRegistry())
	refs := []string{"/lib/libmysql.so"}
	d := fp.Fingerprint(user, refs).Diff(fp.Fingerprint(vendorMachine, refs))
	if d.Len() != 2 {
		t.Fatalf("diff = %d items, want 2 (user's and vendor's versions)", d.Len())
	}
}

func TestBuildRegistry(t *testing.T) {
	reg, err := BuildRegistry(MirageRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Lookup(&machine.File{Path: "/bin/x", Type: machine.TypeExecutable}) == nil {
		t.Fatal("executable parser missing")
	}
	if _, err := BuildRegistry(RegistryConfig{Rules: []RegistryRule{{Match: "warp", Parser: "config"}}}); err == nil {
		t.Fatal("bad match kind accepted")
	}
	if _, err := BuildRegistry(RegistryConfig{Rules: []RegistryRule{{Match: "path", Pattern: "/x", Parser: "quantum"}}}); err == nil {
		t.Fatal("bad parser name accepted")
	}
	if _, err := BuildRegistry(RegistryConfig{Rules: []RegistryRule{{Match: "glob", Pattern: "[", Parser: "config"}}}); err == nil {
		t.Fatal("bad glob pattern accepted")
	}
}
