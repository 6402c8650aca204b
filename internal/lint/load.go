package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Loading without golang.org/x/tools: the repo has no third-party
// dependencies, so scorislint takes the package graph from the go tool
// itself. One `go list -e -export -test -deps` prints every package
// the patterns need, test variants included, dependencies first, each
// with the ImportMap that sends its imports to the right variant (the
// xtest of fasta imports "bank [fasta.test]", the bank re-checked
// against fasta's test files). Main-module packages are parsed and
// type-checked from source in listing order, each import resolved
// through its ImportMap to a package already checked in memory;
// standard-library imports come from the gc export data the listing
// points at.

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	ForTest     string
	GoFiles     []string
	TestGoFiles []string
	ImportMap   map[string]string
	DepOnly     bool
	Module      *struct{ Main bool }
	Error       *struct{ Err string }
}

const listFields = "ImportPath,Name,Dir,Export,ForTest,GoFiles,TestGoFiles,ImportMap,DepOnly,Module,Error"

// goList runs `go list -e -export -deps` in dir with extra flags and
// patterns, and decodes the package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-json=" + listFields, "-deps"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Loader loads and type-checks packages of the module rooted at Dir.
type Loader struct {
	Dir string

	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string         // listing ID → gc export data file
	checked map[string]*types.Package // listing ID → package checked from source
}

// NewLoader returns a loader for the module rooted at dir ("." for
// the current directory; the go command resolves the enclosing
// module).
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		checked: map[string]*types.Package{},
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func (l *Loader) addExports(pkgs []listPkg) {
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// lookup satisfies the importer.ForCompiler lookup contract, listing
// lazily on a miss (fixture packages may import standard packages the
// module itself does not).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		pkgs, err := goList(l.Dir, "--", path)
		if err != nil {
			return nil, fmt.Errorf("resolving import %q: %v", path, err)
		}
		l.addExports(pkgs)
	}
	f, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for import %q (does it compile?)", path)
	}
	return os.Open(f)
}

// moduleImporter resolves an import through the importing package's
// ImportMap to a package checked in memory, and anything else
// (the standard library) through gc export data.
type moduleImporter struct {
	l         *Loader
	importMap map[string]string
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if id, ok := m.importMap[path]; ok {
		path = id
	}
	if pkg := m.l.checked[path]; pkg != nil {
		return pkg, nil
	}
	return m.l.imp.Import(path)
}

// Load lists patterns with their tests, type-checks every main-module
// package of the listing from source, and returns the analyzed set:
// each matched package once, as its test variant "p [p.test]" when it
// has in-package tests, plus its external test package
// "p_test [p.test]". The intermediate re-checks "q [p.test]" are
// checked only so the xtest sees one p; the generated ".test" mains are
// skipped. The tree must compile: any list or type error aborts.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := goList(l.Dir, append([]string{"-test", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	l.addExports(listed)
	var pkgs []*Package
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		testMain := p.Name == "main" && p.ForTest == "" && strings.HasSuffix(p.ImportPath, ".test")
		if p.Module == nil || !p.Module.Main || testMain || len(p.GoFiles) == 0 {
			continue
		}
		var paths []string
		for _, g := range p.GoFiles {
			paths = append(paths, filepath.Join(p.Dir, g))
		}
		files, err := parseFiles(l.fset, paths)
		if err != nil {
			return nil, err
		}
		path, _, _ := strings.Cut(p.ImportPath, " [")
		pkg, err := l.check(p.ImportPath, path, files, p.ImportMap)
		if err != nil {
			return nil, err
		}
		if p.ForTest != "" {
			if path == p.ForTest || path == p.ForTest+"_test" {
				pkgs = append(pkgs, pkg)
			}
		} else if !p.DepOnly && len(p.TestGoFiles) == 0 {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// parseFiles parses source files with comments retained (the ignore
// and background directives live there).
func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks parsed files as one package under path and records
// it under id, so later packages that import id resolve it in memory.
// Files named _test.go are marked in TestFiles.
func (l *Loader) check(id, path string, files []*ast.File, importMap map[string]string) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: moduleImporter{l, importMap}}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", id, err)
	}
	l.checked[id] = pkg
	testFiles := map[*ast.File]bool{}
	for _, f := range files {
		if strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
			testFiles[f] = true
		}
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info, TestFiles: testFiles}, nil
}

// CheckDir parses every .go file directly inside dir and type-checks
// them as one package under importPath — the fixture entry point.
// Fixture packages may import each other: check the imported one first.
func (l *Loader) CheckDir(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	files, err := parseFiles(l.fset, paths)
	if err != nil {
		return nil, err
	}
	return l.check(importPath, importPath, files, nil)
}

// Prime lists the module's packages so fixture checks resolve
// module-internal imports through export data without per-import
// listing.
func (l *Loader) Prime() error {
	listed, err := goList(l.Dir, "--", "./...")
	if err != nil {
		return err
	}
	l.addExports(listed)
	return nil
}
