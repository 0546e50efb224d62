package eiffel_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAPI pins the root package's exported surface to api.txt: one sorted
// line per exported func, method, type, var and const, in the style of
// Go's api/go1.*.txt (parameter names dropped, each declaration on one
// line). A change to the surface must update api.txt in the same commit.
func TestAPI(t *testing.T) {
	files, _ := filepath.Glob("*.go")
	fset := token.NewFileSet()
	src := func(n ast.Node) string {
		var b bytes.Buffer
		printer.Fprint(&b, fset, n)
		return strings.Join(strings.Fields(b.String()), " ")
	}
	types := func(fl *ast.FieldList) string {
		var ts []string
		for _, f := range fl.List {
			for range max(1, len(f.Names)) {
				ts = append(ts, src(f.Type))
			}
		}
		return strings.Join(ts, ", ")
	}
	var got []string
	add := func(s string) { got = append(got, "pkg eiffel, "+s) }
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := d.Name.Name + "(" + types(d.Type.Params) + ")"
				if r := d.Type.Results; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 0 {
					sig += " " + types(r)
				} else if r != nil {
					sig += " (" + types(r) + ")"
				}
				if d.Recv != nil {
					add("method (" + types(d.Recv) + ") " + sig)
				} else {
					add("func " + sig)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add("type " + src(s))
						}
					case *ast.ValueSpec:
						for i, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							line := d.Tok.String() + " " + n.Name
							if s.Type != nil {
								line += " " + src(s.Type)
							}
							if i < len(s.Values) {
								line += " = " + src(s.Values[i])
							}
							add(line)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	text := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("%v; api.txt should read:\n%s", err, text)
	}
	if string(want) == text {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range got {
		if !slices.Contains(wantLines, l) {
			t.Errorf("+ %s", l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(got, l) {
			t.Errorf("- %s", l)
		}
	}
	t.Errorf("exported API differs from api.txt; if the change is intended, api.txt should read:\n%s", text)
}
