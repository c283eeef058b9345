package videocloud

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGatesMatchTests keeps the Makefile's test gates from going
// silently empty: `go test -run 'A|B'` passes when no test matches, so a
// renamed or deleted test would drop out of a gate unnoticed. For every
// `go test` line it checks that each alternative of the -run pattern
// (except ^$) matches a Test function in the packages the line names, that
// each of those packages has a test the pattern selects, and that a -fuzz
// target is a Fuzz function taking *testing.F there.
func TestMakefileGatesMatchTests(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(src), "\\\n", " ")
	lines := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "\t") || !strings.Contains(line, "$(GO) test") {
			continue
		}
		args := makeWords(strings.ReplaceAll(line, "$$", "$"))
		var run, fuzz string
		var dirs []string
		for i, a := range args {
			switch {
			case a == "-run" && i+1 < len(args):
				run = args[i+1]
			case a == "-fuzz" && i+1 < len(args):
				fuzz = args[i+1]
			case strings.HasPrefix(a, "./") && !strings.HasSuffix(a, "..."):
				dirs = append(dirs, filepath.Clean(a))
			}
		}
		if run == "" && fuzz == "" {
			continue
		}
		lines++
		if len(dirs) == 0 {
			t.Errorf("%q names no package directory to check", line)
			continue
		}
		tests, fuzzers := map[string][]string{}, map[string]bool{}
		for _, dir := range dirs {
			tests[dir] = testFuncs(t, dir, fuzzers)
		}
		if fuzz != "" && !fuzzers[fuzz] {
			t.Errorf("-fuzz %s: no func %s(f *testing.F) in %v", fuzz, fuzz, dirs)
		}
		if run == "" || run == "^$" {
			continue
		}
		for _, alt := range strings.Split(run, "|") {
			re := regexp.MustCompile(alt)
			found := false
			for _, names := range tests {
				for _, n := range names {
					found = found || re.MatchString(n)
				}
			}
			if !found {
				t.Errorf("-run alternative %q matches no test in %v", alt, dirs)
			}
		}
		whole := regexp.MustCompile(run)
		for dir, names := range tests {
			found := false
			for _, n := range names {
				found = found || whole.MatchString(n)
			}
			if !found {
				t.Errorf("-run %q selects no test in %s", run, dir)
			}
		}
	}
	if lines == 0 {
		t.Fatal("found no go test line with -run or -fuzz in the Makefile")
	}
}

// makeWords splits a recipe line on spaces, keeping single-quoted words
// whole (the Makefile's -run patterns are single-quoted).
func makeWords(line string) []string {
	var out []string
	for i, part := range strings.Split(line, "'") {
		if i%2 == 1 {
			out = append(out, part)
		} else {
			out = append(out, strings.Fields(part)...)
		}
	}
	return out
}

// testFuncs lists the Test functions of dir's test files and records its
// Fuzz functions that take *testing.F.
func testFuncs(t *testing.T, dir string, fuzzers map[string]bool) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	var tests []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			name := fd.Name.Name
			switch {
			case strings.HasPrefix(name, "Test"):
				tests = append(tests, name)
			case strings.HasPrefix(name, "Fuzz") && len(fd.Type.Params.List) == 1:
				if star, ok := fd.Type.Params.List[0].Type.(*ast.StarExpr); ok {
					if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "F" {
						fuzzers[name] = true
					}
				}
			}
		}
	}
	return tests
}
