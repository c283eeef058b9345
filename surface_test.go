package videocloud

// TestNoTestOnlyExports keeps the module's exported surface to what the
// module runs. Every exported name of an internal/ package — function,
// type, variable, constant, method or struct field — needs a use in some
// non-test file of internal/, cmd/, examples/, bench/ or the facade, or a
// line in surfaceAllowlist that says why it stays. A hook only one
// package's tests call belongs in that package's export_test.go; a name
// nothing calls is deleted. TestEveryOptionHasACaller holds the fields of
// the Config and Options structs to a stricter rule: some non-test code
// outside their own package must name them.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// module is the module's non-test Go code, type-checked from source with
// the standard library stubbed out: an import outside the module resolves to
// an empty package and the errors that follow are ignored. That is enough to
// tell which declaration each selector, call and composite-literal key in the
// module names, and it keeps the scan well under a second.
type module struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path -> its non-test files
	info  *types.Info
}

// loadModule parses and type-checks every non-test package under root:
// internal/, cmd/, examples/, the root facade and the separate bench/
// module, whose go.mod replaces videocloud with this checkout.
func loadModule(t testing.TB, root string) *module {
	t.Helper()
	m := &module{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		path := "videocloud"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		m.dirs[path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.dirs {
		m.load(t, path)
	}
	return m
}

func (m *module) load(t testing.TB, path string) *types.Package {
	if p, ok := m.pkgs[path]; ok {
		return p
	}
	dir, ok := m.dirs[path]
	if !ok {
		if path == "unsafe" {
			return types.Unsafe
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if majorVersion.MatchString(name) { // math/rand/v2 is package rand
			trimmed := strings.TrimSuffix(path, "/"+name)
			name = trimmed[strings.LastIndex(trimmed, "/")+1:]
		}
		p := types.NewPackage(path, name)
		p.MarkComplete()
		m.pkgs[path] = p
		return p
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	m.files[path] = files
	if len(files) == 0 {
		m.pkgs[path] = nil
		return nil
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if pkg := m.load(t, p); pkg != nil {
				return pkg, nil
			}
			return nil, fmt.Errorf("%s: no non-test Go files", p)
		}),
		Error: func(error) {},
	}
	pkg, _ := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path] = pkg
	return pkg
}

var majorVersion = regexp.MustCompile(`^v[0-9]+$`)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// export is one exported declaration of an internal/ package.
type export struct {
	name string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	obj  types.Object
	pos  token.Position
}

// exports lists the exported declarations of every internal/ package:
// package-level names, methods (on any receiver) and struct fields.
func (m *module) exports() []export {
	var out []export
	for path, files := range m.files {
		if !strings.HasPrefix(path, "videocloud/internal/") {
			continue
		}
		pkg := path[strings.LastIndex(path, "/")+1:]
		add := func(name string, id *ast.Ident) {
			if obj := m.info.Defs[id]; obj != nil && id.IsExported() {
				out = append(out, export{name, obj, m.fset.Position(id.Pos())})
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(pkg+"."+d.Name.Name, d.Name)
					} else {
						add(pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(pkg+"."+id.Name, id)
							}
						case *ast.TypeSpec:
							add(pkg+"."+s.Name.Name, s.Name)
							var fields *ast.FieldList
							switch u := s.Type.(type) {
							case *ast.StructType:
								fields = u.Fields
							case *ast.InterfaceType:
								fields = u.Methods
							}
							if fields != nil {
								for _, fl := range fields.List {
									for _, id := range fl.Names {
										add(pkg+"."+s.Name.Name+"."+id.Name, id)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// eachUse calls fn for every declaration a non-test file names: each
// identifier's object, and every field of a struct an unkeyed composite
// literal builds. path is the naming file's package and self the function
// whose declaration holds the name (nil outside functions).
func (m *module) eachUse(fn func(path string, self, obj types.Object)) {
	for path, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = m.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if obj := m.info.Uses[n]; obj != nil {
							fn(path, self, origin(obj))
						}
					case *ast.CompositeLit:
						if len(n.Elts) == 0 {
							return true
						}
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
							return true
						}
						if tv := m.info.Types[n]; tv.Type != nil {
							if st, ok := tv.Type.Underlying().(*types.Struct); ok {
								for i := 0; i < st.NumFields(); i++ {
									fn(path, self, st.Field(i))
								}
							}
						}
					}
					return true
				})
			}
		}
	}
}

// used is the set of declarations some non-test file names. A function's
// reference to itself inside its own body (a recursive call) does not
// count. A concrete method also counts as used when an interface its type
// satisfies demands it: a module interface, one whose method is called (an
// interface asserted in a type switch or assertion among them), or one of
// the standard library's listed in stdlibMethods. Whether the interface's
// own method is called is then the interface's question. A call through an
// interface inside the method's own body demands nothing of the method: it
// is the method forwarding to something else that has its name.
func (m *module) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	// callers[it] are the functions whose bodies call a method of it; nil
	// stands for a module interface's declaration and a call outside any
	// function.
	callers := map[*types.Interface]map[types.Object]bool{}
	demand := func(it *types.Interface, self types.Object) {
		if callers[it] == nil {
			callers[it] = map[types.Object]bool{}
		}
		callers[it][self] = true
	}
	m.eachUse(func(_ string, self, obj types.Object) {
		if obj == self {
			return
		}
		used[obj] = true
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if it, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
				demand(it, self)
			}
		}
	})
	var named []*types.Named
	for _, pkg := range m.pkgs {
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				demand(it, nil)
			} else if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for i := 0; i < n.NumMethods(); i++ {
			fn := n.Method(i)
			sig := fn.Type().(*types.Signature)
			if arity, ok := stdlibMethods[fn.Name()]; ok && arity == [2]int{sig.Params().Len(), sig.Results().Len()} {
				used[fn] = true
			}
			for it, from := range callers {
				if !used[fn] && (len(from) > 1 || !from[fn]) && types.Implements(ptr, it) {
					for j := 0; j < it.NumMethods(); j++ {
						used[fn] = used[fn] || it.Method(j).Name() == fn.Name()
					}
				}
			}
		}
	}
	return used
}

// stdlibMethods are the standard-library interface methods the module's
// types implement, by name and (parameter, result) count: error, errors.Is,
// fmt.Stringer, http.Handler, http.ResponseWriter, http.Flusher and
// heap.Interface. The scan stubs the standard library out, so it cannot see
// the library call them. Methods the library finds by other shapes are
// allowlisted one receiver at a time.
var stdlibMethods = map[string][2]int{
	"Error": {0, 1}, "Is": {1, 1}, "String": {0, 1},
	"ServeHTTP": {2, 0}, "Header": {0, 1}, "Write": {1, 2}, "WriteHeader": {1, 0}, "Flush": {0, 0},
	"Len": {0, 1}, "Less": {2, 1}, "Swap": {2, 0}, "Push": {1, 0}, "Pop": {0, 1},
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// surfaceAllowlist names the exports no non-test code uses that stay, each
// with its reason and the test that exercises it. A key is pkg.Name,
// pkg.Type.Method, or a bare package name for a whole harness package.
var surfaceAllowlist = map[string]string{
	// Paper surface.
	"nebula.NewXenDriver":                "§III-A pluggable Virtualized Access Drivers (the §II Xen comparison); TestDriverVariants",
	"nebula.NewVMwareDriver":             "§III-A pluggable Virtualized Access Drivers; TestDriverVariants",
	"nebula.Driver.Name":                 "§III-A: a driver names its hypervisor; TestDriverVariants",
	"search.Crawl":                       "§III Nutch crawler's generate/fetch/update cycle; TestCrawler",
	"search.IndexCrawl":                  "§III Nutch crawler: index what a crawl fetched; TestCrawler",
	"video.Split":                        "Figure 16 (E2): films divided at GOP boundaries for parallel conversion; TestParallelConversionBitIdentical",
	"video.Merge":                        "Figure 16 (E2): segments assembled in the integration stage; TestMergeOutOfOrderSegments, web's delivery tests",
	"core.VideoCloud.RollingMaintenance": "Figures 8-10 (E1): the operational payoff of live migration, a host patched with the site up; TestRollingMaintenanceKeepsServiceUp",
	"nebula.Options.Driver":              "§III-A pluggable Virtualized Access Drivers: a deployment picks its hypervisor; TestDriverVariants",

	// Named by a later ROADMAP item, or run by a make target.
	"hdfs.NameNode.SaveImage":      "ROADMAP item 11 (restart loses nothing); TestCheckpointRestartRoundTrip",
	"hdfs.Cluster.RestartNameNode": "ROADMAP item 11 (restart loses nothing); TestCheckpointRestartRoundTrip",
	"hdfs.Cluster.Balance":         "§III-B HDFS balancer, repeated by make chaosshort; TestBalanceEvensStorage",
	"hdfs.Cluster.Decommission":    "§III-B HDFS decommissioning, repeated by make chaosshort; TestDecommissionGraceful",
	"nebula.API.SetAuth":           "ROADMAP item 12(c) fuzzes the nebula JSON API's Bearer auth; TestAPIAuth",

	// Standard-library hooks: the library calls them, and the scan stubs it out.
	"web.statusRecorder.Unwrap": "http.ResponseController reaches the connection through the middleware; TestResponseControllerReachesConnection",
	"web.pacedWriter.Unwrap":    "http.ResponseController reaches the connection through the stream pacer; TestResponseControllerReachesConnection",
	"web.requestState.Value":    "the request state is the request's context.Context; TestRequestStateIsTheRequestContext",

	// Cross-package test hooks: another package's tests call them, and Go
	// test files cannot be imported.
	"chaos":                             "the fault-injection harness core's soak drives (TestChaosSoak); ROADMAP items 8 and 12 extend it",
	"edge.Cache.Frequency":              "web's tests read a segment key's admission count; TestSegmentMissCountedOnce",
	"fusebridge.Mount.ReadFileCtx":      "web's tests read stored objects past the edge cache; TestStoredOnce, TestEdgeEntryLifetimeSoak",
	"fusebridge.Mount.Walk":             "web's soak walks HDFS for orphans; TestTitleLifecycleSoak",
	"fusebridge.Mount.Exists":           "web's partial-store tests look for orphans; TestPartialStoreFailureCleansUp",
	"fusebridge.Mount.Mkdir":            "web's partial-store tests block a rendition path with a directory; TestPartialStoreFailureCleansUp",
	"hdfs.Cluster.BlockCache":           "core's soak checks every cache reference is released; TestChaosSoak",
	"image.Image.Backing":               "nebula's tests check a deployed disk is a COW clone; TestSubmitDeployLifecycle",
	"ingress.Balancer.Backends":         "core's tests check the fleet's shape; TestServingTierShape",
	"mapred.Engine.InjectFaults":        "core's soak kills trackers and crashes tasks through it; TestChaosSoak",
	"metrics.Histogram.Count":           "nebula, videodb and web tests count observations; TestRouteMetricsRecorded",
	"metrics.Table.Rows":                "experiments' registry test checks every table has rows; TestRegistry",
	"nebula.Cloud.Network":              "chaos and core's soak partition hosts through it; TestPartitionFaultLifecycle",
	"nebula.Cloud.SetMigrationDeadline": "core's maintenance test makes every copy miss a 1 ms deadline; TestRollingMaintenanceReportsResidentsAsSkipped",
	"simnet.Network.Partitioned":        "chaos's tests check a partition took; TestPartitionFaultLifecycle",
	"tenant.Ledger.Events":              "web's tests read the usage ledger's tail; TestLiveChannelStorageAdmittedAndAccounted",
	"trace.Tracer.Trace":                "core's soak looks traces up by id; TestChaosSoak",
	"videodb.Store.RawPut":              "web's hardening tests inject schema drift through the interface; TestMalformedRowDoesNotPanic",
}

// forwardingFixture is a module for the scan: drv.Cloud forwards two of its
// methods to whatever driver it holds through anonymous interfaces.
// SetDeadline's one mention of its name is the assertion in its own body,
// which *Cloud also satisfies; Stop is asserted the same way from Close.
var forwardingFixture = map[string]string{
	"internal/drv/drv.go": `package drv

type Cloud struct{ driver any }

func New(driver any) *Cloud { return &Cloud{driver: driver} }

func (c *Cloud) SetDeadline(d int) {
	if s, ok := c.driver.(interface{ SetDeadline(int) }); ok {
		s.SetDeadline(d)
	}
}

func (c *Cloud) Stop() {}

func (c *Cloud) Close() {
	if s, ok := c.driver.(interface{ Stop() }); ok {
		s.Stop()
	}
}
`,
	"cmd/app/main.go": `package main

import "videocloud/internal/drv"

func main() { drv.New(nil).Close() }
`,
}

// TestUsedIgnoresForwardingInOwnBody runs the scan on forwardingFixture. No
// code calls drv.Cloud.SetDeadline, but counting the assertion in its own
// body passed it; drv.Cloud.Stop, asserted from Close, stays used.
func TestUsedIgnoresForwardingInOwnBody(t *testing.T) {
	root := t.TempDir()
	for name, src := range forwardingFixture {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := loadModule(t, root)
	used := m.used()
	want := map[string]bool{"drv.Cloud.SetDeadline": false, "drv.Cloud.Stop": true, "drv.Cloud.Close": true, "drv.New": true}
	for _, e := range m.exports() {
		if w, ok := want[e.name]; ok {
			if used[e.obj] != w {
				t.Errorf("%s: used = %v, want %v", e.name, used[e.obj], w)
			}
			delete(want, e.name)
		}
	}
	for name := range want {
		t.Errorf("%s: not among the fixture's exports", name)
	}
}

func TestNoTestOnlyExports(t *testing.T) {
	m := loadModule(t, ".")
	used := m.used()
	exported := map[string]bool{} // every export and package name, for staleness
	testOnly := map[string]bool{} // allowlist keys that still cover an unused export
	for _, e := range m.exports() {
		pkg := e.name[:strings.Index(e.name, ".")]
		exported[e.name], exported[pkg] = true, true
		if used[e.obj] {
			continue
		}
		switch {
		case surfaceAllowlist[e.name] != "":
			testOnly[e.name] = true
		case surfaceAllowlist[pkg] != "":
			testOnly[pkg] = true
		default:
			t.Errorf("%s (%s:%d) has no non-test use: delete it, move it into an export_test.go, or allowlist it with a reason",
				e.name, e.pos.Filename, e.pos.Line)
		}
	}
	_, uncalled := m.options() // TestEveryOptionHasACaller's lines
	for name := range surfaceAllowlist {
		_, option := uncalled[name]
		switch {
		case !exported[name]:
			t.Errorf("allowlist line %q names nothing that exists", name)
		case !testOnly[name] && !option:
			t.Errorf("allowlist line %q is stale: non-test code uses it now", name)
		}
	}
}

// options lists the option fields: the exported fields of every exported
// internal/ struct type whose name ends in Config or Options, the knobs a
// deployment sets. uncalled holds those no non-test code outside the
// field's own package names, by selector, composite-literal key or unkeyed
// literal: read only by their package's defaults, every deployment runs
// them at one value.
func (m *module) options() (fields []export, uncalled map[string]export) {
	outside := map[types.Object]bool{}
	m.eachUse(func(path string, _, obj types.Object) {
		if obj.Pkg() != nil && obj.Pkg().Path() != path {
			outside[obj] = true
		}
	})
	uncalled = map[string]export{}
	for _, e := range m.exports() {
		parts := strings.Split(e.name, ".")
		if len(parts) != 3 || !(strings.HasSuffix(parts[1], "Config") || strings.HasSuffix(parts[1], "Options")) {
			continue
		}
		if v, ok := e.obj.(*types.Var); !ok || !v.IsField() {
			continue
		}
		fields = append(fields, e)
		if !outside[e.obj] {
			uncalled[e.name] = e
		}
	}
	return fields, uncalled
}

// TestEveryOptionHasACaller keeps every option field one that some
// deployment sets: cmd/, examples/, bench/, the experiments or another
// package. An option only its package's defaults and tests set is a
// constant, or an unexported field its tests set; one that stays needs a
// surfaceAllowlist line with its reason and its test. It logs the option
// count that make loc prints.
func TestEveryOptionHasACaller(t *testing.T) {
	fields, uncalled := loadModule(t, ".").options()
	for name, e := range uncalled {
		if surfaceAllowlist[name] == "" {
			t.Errorf("%s (%s:%d) is set by no non-test code outside its package: make it a constant or an unexported field its tests set, or allowlist it with a reason",
				name, e.pos.Filename, e.pos.Line)
		}
	}
	t.Logf("options: %d", len(fields))
}
