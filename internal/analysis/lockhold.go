package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// LockHold flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held in the enclosing function — the deadlock (and
// tail-latency) class PR 9 designed around by firing OnCollect hooks
// outside the monitor's lock. Blocking means: rpc/dht Call, transport
// Dial/Listen, kvlog writes (Store Put/Delete/Compact/CompactIfDead/Sync,
// Journal Append/TrimThrough), flight
// recorder appends, channel sends/receives (outside a select with a
// default), selects without a default, Wait* methods, and time.Sleep.
//
// The scan is statement-ordered and intraprocedural: a lock taken and
// released on the same linear path bounds the held region; `defer
// mu.Unlock()` holds to function end. Sites where holding the lock
// across the write IS the invariant (a WAL append that must be
// ordered with the state change it journals) justify with
// `//lint:lockhold <reason>`.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking operation while a sync mutex is held",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		funcScopes(file, func(name string, body *ast.BlockStmt) {
			checkLockScope(pass, name, body)
		})
	}
	return nil
}

// checkLockScope walks one function body in statement order tracking
// which mutexes are held.
func checkLockScope(pass *Pass, name string, body *ast.BlockStmt) {
	held := make(map[string]bool) // printed receiver expr -> held
	skip := make(map[ast.Node]bool)

	heldAny := func() (string, bool) {
		for k := range held {
			return k, true
		}
		return "", false
	}
	report := func(pos token.Pos, what string) {
		if lock, ok := heldAny(); ok {
			pass.Reportf(pos, "%s while %s is held in %s: blocking under a mutex stalls every contender (move it after Unlock or justify with %slockhold)",
				what, lock, name, markerPrefix)
		}
	}

	inspectShallow(body, func(n ast.Node) bool {
		if skip[n] {
			return true
		}
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			if recv, kind := mutexOp(pass, stmt.Call); kind == opUnlock {
				held[recv] = true // held to function end
			}
			// A deferred blocking call runs after the function's own
			// unlocks; do not scan it against the current held set.
			skip[stmt.Call] = true

		case *ast.CallExpr:
			if recv, kind := mutexOp(pass, stmt); kind != opNone {
				if kind == opLock {
					held[recv] = true
				} else {
					delete(held, recv)
				}
				return true
			}
			if what := blockingCall(pass, stmt); what != "" {
				report(stmt.Pos(), what)
			}

		case *ast.SendStmt:
			report(stmt.Pos(), "channel send")

		case *ast.UnaryExpr:
			if stmt.Op == token.ARROW {
				report(stmt.Pos(), "channel receive")
			}

		case *ast.RangeStmt:
			if isChanExpr(pass, stmt.X) {
				report(stmt.Pos(), "range over channel")
			}

		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range stmt.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				// Non-blocking select: its comm guards cannot block;
				// keep scanning the clause bodies.
				for _, clause := range stmt.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						markCommOps(cc.Comm, skip)
					}
				}
			} else {
				report(stmt.Pos(), "blocking select")
				for _, clause := range stmt.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						markCommOps(cc.Comm, skip)
					}
				}
			}
		}
		return true
	})
}

// markCommOps marks the channel operations guarding a select clause
// so the generic send/receive visitors do not double-report them.
func markCommOps(comm ast.Stmt, skip map[ast.Node]bool) {
	ast.Inspect(comm, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.SendStmt, *ast.UnaryExpr:
			skip[n] = true
		}
		return true
	})
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp classifies sync.Mutex/RWMutex Lock/Unlock calls, returning
// the printed receiver expression as the held-set key.
func mutexOp(pass *Pass, call *ast.CallExpr) (string, mutexOpKind) {
	fn := calleeFunc(pass.TypesInfo, call)
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", opNone
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", opNone
	}
	var kind mutexOpKind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", opNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	return exprString(pass.Fset, sel.X), kind
}

// blockingCall names the blocking operation a call performs, or "".
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	info := pass.TypesInfo
	if isMethodOn(info, call, "blobseer/internal/rpc", "", "Call") ||
		isMethodOn(info, call, "blobseer/internal/dht", "", "Call") {
		return "rpc call"
	}
	if isMethodOn(info, call, "blobseer/internal/transport", "", "Dial") ||
		isMethodOn(info, call, "blobseer/internal/transport", "", "Listen") {
		return "transport dial/listen"
	}
	for _, m := range []string{"Put", "Delete", "Compact", "CompactIfDead", "Sync"} {
		if isMethodOn(info, call, "blobseer/internal/kvlog", "Store", m) {
			return "kvlog " + m
		}
	}
	for _, m := range []string{"Append", "TrimThrough"} {
		if isMethodOn(info, call, "blobseer/internal/kvlog", "Journal", m) {
			return "kvlog journal " + m
		}
	}
	if isMethodOn(info, call, "blobseer/internal/flight", "Recorder", "Append") ||
		isMethodOn(info, call, "blobseer/internal/flight", "Recorder", "Record*") ||
		isMethodOn(info, call, "blobseer/internal/flight", "Recorder", "Sync") {
		return "flight-recorder append"
	}
	if fn := calleeFunc(info, call); fn != nil && nameMatches(fn.Name(), "Wait*") {
		named := recvNamed(fn)
		// sync.Cond.Wait is the one Wait that REQUIRES the lock held —
		// it releases L while parked and reacquires before returning.
		condWait := named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Cond"
		if named != nil && !condWait {
			return fn.Name() + " call"
		}
	}
	if isPkgCall(info, call, "time", "Sleep") {
		return "time.Sleep"
	}
	return ""
}

// isChanExpr reports whether expr has channel type.
func isChanExpr(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// exprString renders an expression compactly for diagnostics and
// held-set keys.
func exprString(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, expr); err != nil {
		return "?"
	}
	return buf.String()
}
