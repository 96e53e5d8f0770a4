package uei_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed names the declarations that nothing outside tests
// references and that stay anyway, each because it is a test's only way
// to observe or compare a behaviour. Keys are "pkg.Name" or
// "pkg.Type.Method", pkg relative to the module root.
var reachAllowed = map[string]string{
	"internal/shard.Coordinator.SetFaultHook": "fault seam: tests fail a shard's leg on purpose",
	"internal/stream.DB.SetFailpoint":         "fault seam: tests crash a flush or compaction between its steps",
	"internal/iothrottle.NewWithClock":        "fault seam: tests drive the limiter with a fake clock",
	"internal/shard.RetrievedPart.Check":      "tests check each streamed part's rows and decisions agree",
	"internal/chunkstore.decodeChunk":         "reference decoder the pooled decode is compared against",
	"internal/grid.Grid.ID":                   "reference cell id the mapping's cell ids are compared against",
	"internal/chunkstore.Store.MergeRegion":   "reference merge the bitset region merge is compared against",
	"internal/dataset.SkyBounds":              "reference bounds the generator's rows are checked against",
	"internal/memcache.Cache.ResidentRegions": "the memcache model test reads the LRU order through it",
	"internal/learn.NeighborTable.Len":        "core's kernel parity suite counts the lists a pass retained through it",
}

// dynamicInterfaces declares the interfaces the standard library calls
// through type assertions rather than through a signature the program
// names.
const dynamicInterfaces = `package dynamic

import (
	"encoding"
	"encoding/json"
	"fmt"
)

type (
	stringer        = fmt.Stringer
	formatter       = fmt.Formatter
	jsonMarshaler   = json.Marshaler
	jsonUnmarshaler = json.Unmarshaler
	textMarshaler   = encoding.TextMarshaler
	textUnmarshaler = encoding.TextUnmarshaler
	unwrapper       interface{ Unwrap() error }
	multiUnwrapper  interface{ Unwrap() []error }
	isser           interface{ Is(error) bool }
	aser            interface{ As(any) bool }
)
`

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// reachScan type-checks the non-test files of the listed packages,
// importing the standard library from source, and records every object
// they reference and every interface those objects' types name.
type reachScan struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	list   map[string]listedPackage
	pkgs   map[string]*types.Package
	used   map[types.Object]bool
	ifaces []*types.Interface
	seen   map[types.Type]bool
}

func (s *reachScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *reachScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := s.list[path]; ok {
		return s.check(path)
	}
	return s.std.ImportFrom(path, dir, mode)
}

func (s *reachScan) check(path string) (*types.Package, error) {
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	lp := s.list[path]
	var names []string
	for _, name := range lp.GoFiles {
		names = append(names, filepath.Join(lp.Dir, name))
	}
	pkg, err := s.checkFiles(path, names, nil)
	s.pkgs[path] = pkg
	return pkg, err
}

// checkFiles type-checks one package from its files, or from src when
// names is the one file it holds.
func (s *reachScan) checkFiles(path string, names []string, src any) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		s.used[obj] = true
		s.noteInterfaces(obj.Type())
	}
	return pkg, nil
}

// noteInterfaces records the interfaces t names, directly or as the
// element, parameter or result type of a composite it names: a value
// passed through one may have its methods called by dynamic dispatch.
func (s *reachScan) noteInterfaces(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if it, ok := u.Underlying().(*types.Interface); ok {
			s.ifaces = append(s.ifaces, it)
		}
	case *types.Interface:
		s.ifaces = append(s.ifaces, u)
	case *types.Pointer:
		s.noteInterfaces(u.Elem())
	case *types.Slice:
		s.noteInterfaces(u.Elem())
	case *types.Array:
		s.noteInterfaces(u.Elem())
	case *types.Map:
		s.noteInterfaces(u.Key())
		s.noteInterfaces(u.Elem())
	case *types.Chan:
		s.noteInterfaces(u.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.noteInterfaces(tup.At(i).Type())
			}
		}
	}
}

// dispatched reports whether a recorded interface has a method called
// name that named, or a pointer to it, implements. A generic type is
// matched by the method name alone.
func (s *reachScan) dispatched(named *types.Named, name string) bool {
	for _, it := range s.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != name {
				continue
			}
			if named.TypeParams().Len() > 0 || types.Implements(named, it) ||
				types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// unreferenced returns "pkg.Name" and "pkg.Type.Method" for every
// package-level declaration and method of this module's packages, bar the
// facade, leakcheck and the facade's aliased types, that nothing recorded
// references.
func (s *reachScan) unreferenced(aliased map[*types.TypeName]bool) []string {
	var out []string
	for path, pkg := range s.pkgs {
		rel, ok := strings.CutPrefix(path, modulePath+"/")
		if !ok || strings.HasPrefix(rel, "benchmark") || rel == "internal/leakcheck" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if name == "main" || name == "init" {
				continue
			}
			tn, isType := obj.(*types.TypeName)
			if isType && aliased[tn] {
				continue
			}
			if !s.used[obj] {
				out = append(out, rel+"."+name)
			}
			if !isType || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !s.used[m] && !s.dispatched(named, m.Name()) {
					out = append(out, rel+"."+name+"."+m.Name())
				}
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); !s.used[m] {
						out = append(out, rel+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestEveryDeclarationIsReferenced fails naming each package-level
// declaration or method of this module that no non-test file of this
// module or of benchmark/ references. The facade's aliased types are the
// stable surface and stay whole; a method whose name belongs to an
// interface the program references may be called through it. A name only
// a test reaches is deleted, or listed in reachAllowed with its reason.
func TestEveryDeclarationIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	s := &reachScan{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		list: make(map[string]listedPackage),
		pkgs: make(map[string]*types.Package),
		used: make(map[types.Object]bool),
		seen: make(map[types.Type]bool),
	}
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range goList(t, dir) {
			if !p.Standard {
				s.list[p.ImportPath] = p
			}
		}
	}
	for path := range s.list {
		if _, err := s.check(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	dyn, err := s.checkFiles("dynamic", []string{"dynamic.go"}, dynamicInterfaces)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dyn.Scope().Names() {
		s.noteInterfaces(dyn.Scope().Lookup(name).Type())
	}

	facade := s.pkgs[modulePath]
	if facade == nil {
		t.Fatal("the facade was not type-checked; the scan is broken")
	}
	aliased := make(map[*types.TypeName]bool)
	for _, name := range facade.Scope().Names() {
		if tn, ok := facade.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				aliased[named.Obj()] = true
			}
		}
	}
	if len(aliased) == 0 {
		t.Fatal("the facade aliases no type; the scan is broken")
	}

	flagged := make(map[string]bool)
	for _, name := range s.unreferenced(aliased) {
		flagged[name] = true
		if _, ok := reachAllowed[name]; !ok {
			t.Errorf("%s: nothing outside tests references it; delete it, or list it in reachAllowed with the reason a test needs it", name)
		}
	}
	for name := range reachAllowed {
		if !flagged[name] {
			t.Errorf("allowlist entry %s is referenced or gone; drop it", name)
		}
	}
}
