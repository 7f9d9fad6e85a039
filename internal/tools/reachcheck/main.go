// Command reachcheck keeps production code that no program runs out of
// the module: it fails on any func or method declared in a non-test file
// that no binary reaches, unless allowlist.txt says why it stays. Run as
// `make reachcheck` (part of `make check`).
//
// Reached means reached by the linker. The tool builds every main package
// of the module, perfbench from its own module directory, and one
// generated main that calls every exported func of the root vccmin
// package (the library's facade is an API, so it is a root), all with
// inlining off and the linker's -dumpdep flag. It reads the `a -> b`
// edges the linker prints while it marks symbols live, and compares the
// symbols reached with the declarations go/parser finds.
//
// -dumpdep is an undocumented linker debug flag, so its format may move
// under a toolchain upgrade. Every binary's dump must reach its own main
// and carry at least minEdges edges, and every line must be an edge;
// anything else fails the run rather than letting it pass with nothing
// reached or nothing declared.
//
// Usage:
//
//	go run ./internal/tools/reachcheck        # check the working tree
//	go run ./internal/tools/reachcheck DIR    # check another checkout
//
// Exit status 1 and one line per problem on failure.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// module is the main module's path; its exported funcs are the facade.
const module = "vccmin"

// minEdges is the fewest dependency edges one binary's dump may hold. A
// Go binary that does nothing already links ~3000 runtime edges; the
// smallest binary here holds ~13000.
const minEdges = 2000

// facadeRoot is the import path of the generated main that calls every
// exported func of the facade. It exists only in the build's overlay.
const facadeRoot = module + "/internal/tools/reachcheck/facade"

//go:embed allowlist.txt
var allowlistText string

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, summary, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("reachcheck:", summary)
}

// run lists the module's declarations, builds every binary with its
// dependency dump, and returns the problems found.
func run(root string) ([]string, string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, "", err
	}
	pkgs, err := listPackages(root)
	if err != nil {
		return nil, "", err
	}
	decls, err := declarations(root, pkgs)
	if err != nil {
		return nil, "", err
	}
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return nil, "", err
	}
	out, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(out)

	facade, err := facadeMain(decls)
	if err != nil {
		return nil, "", err
	}
	overlay, err := writeOverlay(out, filepath.Join(root, "internal", "tools", "reachcheck", "facade", "main.go"), facade)
	if err != nil {
		return nil, "", err
	}
	binaries := []string{facadeRoot}
	for _, p := range pkgs {
		if p.Name == "main" {
			binaries = append(binaries, p.ImportPath)
		}
	}
	var dumps bytes.Buffer
	if err := dumpdep(&dumps, root, out, append([]string{"-overlay", overlay}, binaries...)); err != nil {
		return nil, "", err
	}
	if err := dumpdep(&dumps, filepath.Join(root, "perfbench"), out, []string{"."}); err != nil {
		return nil, "", err
	}
	binaries = append(binaries, module+"/perfbench")

	d, err := parseDump(&dumps)
	if err != nil {
		return nil, "", err
	}
	if err := d.checkFloor(binaries, minEdges); err != nil {
		return nil, "", err
	}
	problems := check(decls, d.reached, allow)
	summary := fmt.Sprintf("%d funcs and methods, %d reached by %d binaries, %d allowlisted",
		len(decls), len(decls)-len(allow), len(binaries), len(allow))
	return problems, summary, nil
}

// listedPackage is the part of `go list -json` output the tool reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// listPackages lists the main module's packages; GoFiles already
// excludes test files and files build constraints leave out.
func listPackages(root string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Name,Dir,GoFiles", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// decl is one func or method declared in a non-test file.
type decl struct {
	Key string // the linker's name for it, type arguments removed
	Pos string // file:line, relative to the module root
	// Facade marks an exported func (not a method) of the root package.
	Facade bool
	// Generic marks a func with type parameters, which a facade root
	// could not take the value of without instantiating it.
	Generic bool
}

// declarations parses every listed file and returns its funcs and
// methods in file order.
func declarations(root string, pkgs []listedPackage) ([]decl, error) {
	fset := token.NewFileSet()
	var decls []decl
	for _, p := range pkgs {
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls = append(decls, decl{
					Key:     funcKey(p.ImportPath, fd),
					Pos:     fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fd.Pos()).Line),
					Facade:  p.ImportPath == module && fd.Recv == nil && fd.Name.IsExported(),
					Generic: fd.Type.TypeParams != nil,
				})
			}
		}
	}
	if len(decls) == 0 {
		return nil, errors.New("no func declarations found (did go list change its output?)")
	}
	return decls, nil
}

// funcKey names a declaration the way the linker names its symbol, with
// type parameters dropped: pkg.F, pkg.T.M or pkg.(*T).M.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return pkg + ".(*" + recv + ")." + fd.Name.Name
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// facadeMain is the source of a main that takes the value of every
// exported func of the facade, so the linker keeps each one and all it
// calls.
func facadeMain(decls []decl) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "package main\n\nimport %q\n\nvar roots = []any{\n", module)
	n := 0
	for _, d := range decls {
		if !d.Facade {
			continue
		}
		if d.Generic {
			return nil, fmt.Errorf("%s: generic facade func %s cannot be rooted without type arguments", d.Pos, d.Key)
		}
		fmt.Fprintf(&b, "\t%s,\n", d.Key)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("package %s declares no exported funcs", module)
	}
	b.WriteString("}\n\nfunc main() {\n\tfor _, r := range roots {\n\t\t_ = r\n\t}\n}\n")
	return b.Bytes(), nil
}

// writeOverlay writes src to dir and a `go build -overlay` file that
// places it at path, returning the overlay file's name.
func writeOverlay(dir, path string, src []byte) (string, error) {
	file := filepath.Join(dir, "facade.go")
	if err := os.WriteFile(file, src, 0o644); err != nil {
		return "", err
	}
	spec, err := json.Marshal(map[string]map[string]string{"Replace": {path: file}})
	if err != nil {
		return "", err
	}
	overlay := filepath.Join(dir, "overlay.json")
	return overlay, os.WriteFile(overlay, spec, 0o644)
}

// dumpdep builds the given packages from dir into out with inlining off
// (so every call the source makes is an edge) and appends the linker's
// dependency dumps to w.
func dumpdep(w *bytes.Buffer, dir, out string, args []string) error {
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", out + string(filepath.Separator)}, args...)...)
	cmd.Dir = dir
	cmd.Stdout = w
	cmd.Stderr = w
	if err := cmd.Run(); err != nil {
		tail := w.Bytes()
		if len(tail) > 4096 {
			tail = tail[len(tail)-4096:]
		}
		return fmt.Errorf("go build in %s: %w\n%s", dir, err, tail)
	}
	return nil
}

// dump is what one or more -dumpdep outputs say the linker kept.
type dump struct {
	reached map[string]bool // keys as funcKey names them
	edges   map[string]int  // edges per binary, by import path
}

// parseDump reads `go build -ldflags=-dumpdep` output: a "# importpath"
// header per linked binary, then one "from -> to" line per edge. A
// symbol in package main is renamed into the binary's import path, so
// mains do not collide.
func parseDump(r io.Reader) (*dump, error) {
	d := &dump{reached: map[string]bool{}, edges: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	bin, line := "", 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if path, ok := strings.CutPrefix(text, "# "); ok {
			bin = path
			continue
		}
		from, to, ok := strings.Cut(text, " -> ")
		if !ok || bin == "" {
			return nil, fmt.Errorf("dump line %d is not an edge: %q", line, text)
		}
		d.edges[bin]++
		for _, sym := range []string{from, to} {
			key := symbolKey(sym, bin)
			d.reached[key] = true
			// A pointer wrapper of a value method calls it.
			if pre, rest, ok := strings.Cut(key, ".(*"); ok {
				if typ, method, ok := strings.Cut(rest, ")."); ok {
					d.reached[pre+"."+typ+"."+method] = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkFloor fails unless every binary was dumped, holds at least
// minEdges edges and reaches its own main.
func (d *dump) checkFloor(binaries []string, minEdges int) error {
	var errs []error
	for _, b := range binaries {
		switch n := d.edges[b]; {
		case n == 0:
			errs = append(errs, fmt.Errorf("no dependency dump for %s", b))
		case n < minEdges:
			errs = append(errs, fmt.Errorf("dependency dump for %s has %d edges, fewer than the floor of %d (did -dumpdep change?)", b, n, minEdges))
		case !d.reached[b+".main"]:
			errs = append(errs, fmt.Errorf("dependency dump for %s does not reach %s.main (did -dumpdep change?)", b, b))
		}
	}
	return errors.Join(errs...)
}

// symbolKey maps a linker symbol to the funcKey of the declaration whose
// code it is: type arguments go (nested ones, and ones holding spaces
// such as go.shape.struct {}), a method value's -fm wrapper and a
// closure's .funcN, .deferwrapN, .gowrapN and .N suffixes fold into the
// enclosing func, and package main becomes bin.
func symbolKey(sym, bin string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	for {
		i := strings.LastIndexByte(s, '.')
		if i < 0 || !isClosureSuffix(s[i+1:]) {
			break
		}
		s = s[:i]
	}
	if rest, ok := strings.CutPrefix(s, "main."); ok {
		s = bin + "." + rest
	}
	return s
}

// isClosureSuffix reports whether seg is a compiler-made name for code
// inside a func: funcN, deferwrapN, gowrapN, or a bare N (a nested
// closure, or one of several init funcs).
func isClosureSuffix(seg string) bool {
	for _, p := range []string{"func", "deferwrap", "gowrap"} {
		if rest, ok := strings.CutPrefix(seg, p); ok {
			seg = rest
			break
		}
	}
	if seg == "" {
		return false
	}
	for _, c := range seg {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// allowEntry is one allowlist line: a declaration no binary reaches that
// stays, and why.
type allowEntry struct {
	Key, Reason, Why string
	Line             int
}

// reasons are the two grounds on which an unreached declaration stays.
var reasons = map[string]bool{
	// A copy of code a hot path inlines by hand, kept so tests can hold
	// the two equal.
	"reference-copy": true,
	// A helper that other packages' tests call, so it cannot live in one
	// package's _test.go file.
	"test-hook": true,
}

// parseAllowlist reads "key reason why..." lines; # starts a comment.
func parseAllowlist(text string) ([]allowEntry, error) {
	var entries []allowEntry
	seen := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("allowlist.txt:%d: want \"symbol reason why...\", got %q", i+1, line)
		}
		if !reasons[f[1]] {
			return nil, fmt.Errorf("allowlist.txt:%d: reason %q is neither reference-copy nor test-hook", i+1, f[1])
		}
		if seen[f[0]] {
			return nil, fmt.Errorf("allowlist.txt:%d: %s is listed twice", i+1, f[0])
		}
		seen[f[0]] = true
		entries = append(entries, allowEntry{Key: f[0], Reason: f[1], Why: strings.Join(f[2:], " "), Line: i + 1})
	}
	return entries, nil
}

// check returns one line per declaration no binary reaches and the
// allowlist does not cover, and one per allowlist entry that has gone
// stale, sorted.
func check(decls []decl, reached map[string]bool, allow []allowEntry) []string {
	listed := map[string]bool{}
	for _, a := range allow {
		listed[a.Key] = true
	}
	declared := map[string]bool{}
	var problems []string
	for _, d := range decls {
		declared[d.Key] = true
		if !reached[d.Key] && !listed[d.Key] {
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no binary; delete it, move it into a _test.go file, or allowlist it", d.Pos, d.Key))
		}
	}
	for _, a := range allow {
		switch {
		case !declared[a.Key]:
			problems = append(problems, fmt.Sprintf("allowlist.txt:%d: %s is no longer declared; drop the entry", a.Line, a.Key))
		case reached[a.Key]:
			problems = append(problems, fmt.Sprintf("allowlist.txt:%d: %s is reached by a binary; drop the entry", a.Line, a.Key))
		}
	}
	sort.Strings(problems)
	return problems
}
