package analysis

import (
	"go/ast"
	"go/types"
)

// FrameAlias guards the rpc frame pool. wire.Reader.Bytes returns a
// slice of the frame being decoded, and a request frame is recycled
// as soon as its handler's response has been marshalled — so a Bytes
// result that outlives the decode (stored in a struct field, a
// package variable or a composite literal, or returned) is a
// use-after-free unless somebody copies it in time. Decoders that keep
// the bytes call BytesCopy (or BytesSliceCopy); the four that alias on
// purpose (blob.PutPageReq, whose page the store copies before the
// handler returns, blob.GetPageResp and dht.BatchResp, whose response
// frames are never recycled, and mapreduce's run, which reads a
// shuffle segment the reducer owns and no frame at all) carry
// `//lint:framealias <reason>`.
//
// The check follows a Bytes result through local variables and slice
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

	const advice = "copy it (BytesCopy) or justify with " + markerPrefix + "framealias"
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				if !aliases(rhs) {
					continue
				}
				if id, ok := s.Lhs[i].(*ast.Ident); ok {
					obj := info.ObjectOf(id)
					if obj == nil || obj.Parent() != pass.Pkg.Scope() {
						if obj != nil {
							locals[obj] = true
						}
						continue
					}
				}
				pass.Reportf(rhs.Pos(), "wire.Reader.Bytes result stored beyond the decode: the frame is recycled; %s", advice)
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if aliases(res) {
					pass.Reportf(res.Pos(), "wire.Reader.Bytes result returned: the frame is recycled; %s", advice)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if aliases(elt) {
					pass.Reportf(elt.Pos(), "wire.Reader.Bytes result stored in a composite literal: the frame is recycled; %s", advice)
				}
			}
		}
		return true
	})
}
