package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricTableMatchesNames keeps DESIGN.md's metric reference table and
// names.go's Metric* constants one list: every constant has a row, every
// row names a constant, and every row says what reads the series.
func TestMetricTableMatchesNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := make(map[string]bool)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Metric") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s is not a string literal", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				consts[v] = true
			}
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(string(design), "\n") {
		if !strings.HasPrefix(line, "| `mvtee_") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if len(cells) != 4 || strings.TrimSpace(cells[3]) == "" {
			t.Errorf("DESIGN.md row for %s: want series | kind | labels | read by", name)
		}
		if rows[name] {
			t.Errorf("DESIGN.md lists %s twice", name)
		}
		rows[name] = true
	}

	var missing, extra []string
	for n := range consts {
		if !rows[n] {
			missing = append(missing, n)
		}
	}
	for n := range rows {
		if !consts[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("names.go series missing from DESIGN.md's metric reference: %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("DESIGN.md's metric reference lists series not in names.go: %v", extra)
	}
}
