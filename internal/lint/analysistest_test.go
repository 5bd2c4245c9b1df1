package lint_test

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"vectorh/internal/lint"
	"vectorh/internal/lint/driver"
)

// The golden harness mirrors x/tools' analysistest: each testdata/src/<dir>
// package is type-checked under a declared import path (which selects the
// package-role rules that apply) and run through one analyzer; every
// diagnostic must be announced by a `// want "substring"` comment on its
// line, and every want must be matched. Suppressed and conforming sites
// carry no want and must produce no diagnostic.

var wantRE = regexp.MustCompile(`^//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type wantKey struct {
	file string
	line int
}

func runGolden(t *testing.T, a *lint.Analyzer, subdir, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", subdir)
	pkg, fset, err := driver.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}

	// Collect want annotations per line.
	wants := map[wantKey][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				key := wantKey{filepath.Base(posn.Filename), posn.Line}
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", posn, q, err)
					}
					wants[key] = append(wants[key], s)
				}
			}
		}
	}

	diags, err := lint.Run(fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		posn := fset.Position(d.Pos)
		key := wantKey{filepath.Base(posn.Filename), posn.Line}
		matched := -1
		for i, w := range wants[key] {
			if ok, _ := regexp.MatchString(regexp.QuoteMeta(w), d.Message); ok {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
	}
	for key, rest := range wants {
		for _, w := range rest {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w)
		}
	}
}

func TestCtxPropagateGolden(t *testing.T) {
	runGolden(t, lint.CtxPropagate, "ctxpropagate", "vectorh/internal/ctxgolden")
}

func TestLockDisciplineGolden(t *testing.T) {
	runGolden(t, lint.LockDiscipline, "lockdiscipline", "vectorh/internal/lockgolden")
}

func TestPairedReleaseGolden(t *testing.T) {
	runGolden(t, lint.PairedRelease, "pairedrelease", "vectorh/internal/prgolden")
}

func TestHotPathAllocGolden(t *testing.T) {
	runGolden(t, lint.HotPathAlloc, "hotpathalloc", "vectorh/internal/exec")
}

func TestHotPathAllocGoldenMPI(t *testing.T) {
	runGolden(t, lint.HotPathAlloc, "hotpathalloc", "vectorh/internal/mpi")
}

// TestHotPathAllocDXchgFileOnly checks the file scope in internal/mpp: the
// golden dxchg.go must fire, its sibling with the same smells must not.
func TestHotPathAllocDXchgFileOnly(t *testing.T) {
	runGolden(t, lint.HotPathAlloc, "hotpathfile", "vectorh/internal/mpp")
}

func TestHotPathAllocScanFileOnly(t *testing.T) {
	// The same sources under a non-hot-path package path must be clean: the
	// analyzer is scoped, not global.
	pkg, fset, err := driver.LoadDir(filepath.Join("testdata", "src", "hotpathalloc"), "vectorh/internal/coldgolden")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{lint.HotPathAlloc})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside hot-path packages: %s: %s", fset.Position(d.Pos), d.Message)
	}
}

func TestErrPosGoldenSQL(t *testing.T) {
	runGolden(t, lint.ErrPos, "errpos", "vectorh/internal/sql")
}

func TestErrPosGoldenAnyPackage(t *testing.T) {
	runGolden(t, lint.ErrPos, "errposany", "vectorh/internal/wiregolden")
}

// TestSuiteSelfClean runs the whole suite over its own golden harness
// package path to ensure analyzer registration is coherent (names, keys,
// docs present and unique).
func TestSuiteSelfClean(t *testing.T) {
	seenName := map[string]bool{}
	seenKey := map[string]bool{}
	for _, a := range lint.All {
		if a.Name == "" || a.Doc == "" || a.Key == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely registered", a)
		}
		if seenName[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		if seenKey[a.Key] {
			t.Errorf("duplicate suppression key %q", a.Key)
		}
		seenName[a.Name] = true
		seenKey[a.Key] = true
	}
	if len(lint.All) != 5 {
		t.Errorf("expected the five-invariant suite, got %d analyzers", len(lint.All))
	}
}
