package analysis

import (
	"go/ast"
	"go/types"
)

// FrameAlias guards the rpc frame pool. wire.Reader.Bytes returns a
// slice of the frame being decoded, and so does the region that
// wire.Reader.Fields returns beside its count; a request frame is
// recycled as soon as its handler's response has been marshalled — so
// such a slice that outlives the decode (stored in a struct field, a
// package variable or a composite literal, or returned) is a
// use-after-free unless somebody copies it in time. Decoders that keep
// the bytes call BytesCopy (or copy a Fields region once); the ones
// that alias on purpose (blob.PutPageReq, whose page the store copies
// before the handler returns, blob.GetPageResp and the dht client's
// batch answer, whose response frames are never recycled, the dht
// server's get-batch answer, which reads its request's keys while it
// is marshalled, before the frame is released, and mapreduce's run,
// which reads a shuffle segment the reducer owns and no frame at all)
// carry `//lint:framealias <reason>`.
//
// The check follows a frame slice through local variables and slice
// expressions within one function body; it does not follow it into a
// callee or a closure.
var FrameAlias = &Analyzer{
	Name: "framealias",
	Doc:  "flag wire.Reader.Bytes results that are stored or returned: rpc request frames are recycled",
	Run:  runFrameAlias,
}

const wirePkg = "blobseer/internal/wire"

func runFrameAlias(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		funcScopes(file, func(_ string, body *ast.BlockStmt) {
			checkFrameAliases(pass, body)
		})
	}
	return nil
}

func checkFrameAliases(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	locals := make(map[types.Object]bool) // variables holding a frame alias
	const advice = "copy it (BytesCopy) or justify with " + markerPrefix + "framealias"

	// aliases reports whether e evaluates to (a slice of) a frame.
	var aliases func(e ast.Expr) bool
	aliases = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if isMethodOn(info, x, wirePkg, "Reader", "Bytes") {
				return true
			}
			// append(dst, alias) stores the alias as an element.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && info.Uses[id] == types.Universe.Lookup("append") && !x.Ellipsis.IsValid() {
				for _, arg := range x.Args[1:] {
					if aliases(arg) {
						return true
					}
				}
			}
		case *ast.Ident:
			return locals[info.ObjectOf(x)]
		case *ast.SliceExpr:
			return aliases(x.X)
		}
		return false
	}

	// fields reports whether e is a call of wire.Reader.Fields, whose
	// second result is a frame slice.
	fields := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		return ok && isMethodOn(info, call, wirePkg, "Reader", "Fields")
	}
	// store records lhs as a frame alias if it is a local variable and
	// reports it otherwise.
	store := func(lhs, rhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok {
			obj := info.ObjectOf(id)
			if obj == nil || obj.Parent() != pass.Pkg.Scope() {
				if obj != nil {
					locals[obj] = true
				}
				return
			}
		}
		pass.Reportf(rhs.Pos(), "wire.Reader.Bytes or Fields result stored beyond the decode: the frame is recycled; %s", advice)
	}

	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == 2 && len(s.Rhs) == 1 && fields(s.Rhs[0]) {
				store(s.Lhs[1], s.Rhs[0])
				return true
			}
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				if aliases(rhs) {
					store(s.Lhs[i], rhs)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if aliases(res) || fields(res) {
					pass.Reportf(res.Pos(), "wire.Reader.Bytes or Fields result returned: the frame is recycled; %s", advice)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if aliases(elt) {
					pass.Reportf(elt.Pos(), "wire.Reader.Bytes or Fields result stored in a composite literal: the frame is recycled; %s", advice)
				}
			}
		}
		return true
	})
}
