package analysis

import (
	"go/ast"
	"strings"
)

// DroppedErr flags silently discarded errors in production code:
//
//   - `_ = f()` (all-blank assignments) where f returns an error, and
//   - bare or deferred statement calls to *module-internal*
//     error-returning functions (`st.Close()` as a statement).
//
// The convention is that a meaningful error is logged through
// log/slog with context; a genuinely-ignorable one carries a
// `//lint:droppederr <reason>` marker so the why survives in the
// diff. Partial discards (`n, _ := f()`) keep a value and are left to
// review; stdlib bare calls (fmt.Fprintf to a strings.Builder and
// friends) are conventionally infallible and exempt.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "flag `_ =` and bare-call discards of error-returning expressions",
	Run:  runDroppedErr,
}

func runDroppedErr(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				checkBlankAssign(pass, stmt)
			case *ast.ExprStmt:
				checkBareCall(pass, stmt.X, "")
			case *ast.DeferStmt:
				checkBareCall(pass, stmt.Call, "deferred ")
			}
			return true
		})
	}
	return nil
}

// checkBlankAssign reports assignments that exist purely to discard
// an error: every left-hand side blank, at least one error on the
// right.
func checkBlankAssign(pass *Pass, stmt *ast.AssignStmt) {
	for _, lhs := range stmt.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return
		}
	}
	for _, rhs := range stmt.Rhs {
		if dropsError(pass, rhs) {
			pass.Reportf(stmt.Pos(), "error discarded with `_ =`: log it through slog or justify with %sdroppederr", markerPrefix)
			return
		}
	}
}

func dropsError(pass *Pass, expr ast.Expr) bool {
	if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		return callReturnsError(pass.TypesInfo, call)
	}
	tv, ok := pass.TypesInfo.Types[expr]
	return ok && isErrorType(tv.Type)
}

// checkBareCall reports statement calls to module-internal functions
// whose error result vanishes. Close (and close) in statement
// position is exempt: discard-on-teardown is the accepted idiom, and
// a Close whose error matters is returned or logged at the call site
// that cares.
func checkBareCall(pass *Pass, expr ast.Expr, prefix string) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || !callReturnsError(pass.TypesInfo, call) {
		return
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if !sameModule(pass.Pkg.Path(), fn.Pkg().Path()) {
		return
	}
	if strings.EqualFold(fn.Name(), "close") {
		return
	}
	pass.Reportf(call.Pos(), "%serror result of %s dropped: check it, log it through slog, or justify with %sdroppederr",
		prefix, fn.Name(), markerPrefix)
}

// sameModule reports whether two import paths share a first path
// element — the module boundary for a single-module tree.
func sameModule(a, b string) bool {
	first := func(p string) string {
		if i := strings.IndexByte(p, '/'); i >= 0 {
			return p[:i]
		}
		return p
	}
	return first(a) == first(b)
}
