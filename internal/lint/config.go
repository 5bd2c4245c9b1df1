package lint

import (
	"path"
	"strings"
)

// Package roles are keyed on import-path suffixes so that both the real
// module ("vectorh/internal/exec") and analyzer golden packages checked under
// synthetic paths in tests resolve to the same rules.

// isLibraryPkg reports whether the package is engine library code — the
// domain of the context-propagation and error-wrapping invariants. Binaries
// (cmd/*) own their root contexts and render errors for humans; the
// experiments harness is a benchmark driver, not a library.
func isLibraryPkg(pkgPath string) bool {
	return strings.Contains(pkgPath, "internal/") &&
		!strings.Contains(pkgPath, "internal/lint") &&
		!strings.Contains(pkgPath, "internal/experiments")
}

// isHotPathPkg reports whether the whole package is per-batch hot-path code:
// internal/vector and internal/exec process millions of batches per query,
// and internal/mpi encodes and decodes every remote exchange row, so the
// no-map[string]/no-Sprintf regression guard applies to every file.
func isHotPathPkg(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/vector") ||
		strings.HasSuffix(pkgPath, "internal/exec") ||
		strings.HasSuffix(pkgPath, "internal/mpi")
}

// isHotPathFile reports whether one file of a package is hot-path code even
// though its package is not: the MScan inner loop lives in internal/core next
// to cold catalog code (whose map[string] tables are fine), and the
// code-space accessors of internal/compress (dictionary handles, frame
// bounds, ranged decode) run per block inside the scan while the encoders
// around them are load-path code. In internal/mpp, dxchg.go holds the DXchg
// senders and receivers that route every exchanged row.
func isHotPathFile(pkgPath, filename string) bool {
	switch {
	case strings.HasSuffix(pkgPath, "internal/core"):
		switch path.Base(filename) {
		case "scan.go", "scanpred.go":
			return true
		}
	case strings.HasSuffix(pkgPath, "internal/compress"):
		return path.Base(filename) == "codes.go"
	case strings.HasSuffix(pkgPath, "internal/mpp"):
		return path.Base(filename) == "dxchg.go"
	}
	return false
}

// isSQLPkg reports whether the package is the SQL text front-end, where every
// user-facing error must carry a 1-based line:col position via errf.
func isSQLPkg(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/sql")
}
