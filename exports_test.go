package blobseer

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"blobseer/internal/analysis"
)

// unusedExportMarker exempts one declaration from
// TestEveryExportedFunctionHasACaller: `//lint:unusedexport <reason>`
// on the line above it. bslint rejects the marker without a reason.
const unusedExportMarker = "//lint:unusedexport "

// TestEveryExportedFunctionHasACaller: an exported function or method
// under internal/ that no non-test code calls is API kept alive by its
// own tests. So every one must be selected or referenced by some
// non-test file of this module or of the pinned benchmark/ module. A
// method that an interface declares, with the same name and an
// identical signature, is not checked: it may be called through that
// interface.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loader.LoadDir(filepath.Join(root, "benchmark"), "blobseer/benchmark")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, bench)

	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	dynamic := interfaceMethods(pkgs)

	checked := 0
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "blobseer/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				obj := p.TypesInfo.Defs[fd.Name]
				if fd.Recv != nil && declared(dynamic, obj.(*types.Func)) {
					continue
				}
				checked++
				if used[obj] || marked(fd.Doc) {
					continue
				}
				pos := p.Fset.Position(fd.Pos())
				rel, _ := filepath.Rel(root, pos.Filename)
				t.Errorf("%s:%d: %s has no non-test caller; delete it, or mark it %s<reason>", rel, pos.Line, funcName(fd), unusedExportMarker)
			}
		}
	}
	if checked == 0 {
		t.Fatal("checked no exported functions: the load missed internal/")
	}
}

// interfaceMethods holds, by name, the signatures of the methods
// declared by an interface that the loaded packages declare, or that
// their code mentions or assigns to an exported struct field. The
// errors package's Is, As and Unwrap hooks are declared by interfaces
// local to its functions, which no scope holds.
func interfaceMethods(pkgs []*analysis.Package) map[string][]*types.Signature {
	errType := types.Universe.Lookup("error").Type()
	sig := func(param, result types.Type) *types.Signature {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewParam(0, nil, "", param))
		}
		return types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(0, nil, "", result)), false)
	}
	methods := map[string][]*types.Signature{
		"Is":     {sig(errType, types.Typ[types.Bool])},
		"As":     {sig(types.Universe.Lookup("any").Type(), types.Typ[types.Bool])},
		"Unwrap": {sig(nil, errType)},
	}
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				methods[m.Name()] = append(methods[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	add(errType)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, tv := range p.TypesInfo.Types {
			add(tv.Type)
			typ := tv.Type
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if st, ok := typ.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						add(st.Field(i).Type())
					}
				}
			}
		}
	}
	return methods
}

// declared reports whether an interface in methods declares fn: a
// method of its name whose signature is identical to fn's (Identical
// ignores receivers).
func declared(methods map[string][]*types.Signature, fn *types.Func) bool {
	for _, sig := range methods[fn.Name()] {
		if types.Identical(sig, fn.Type()) {
			return true
		}
	}
	return false
}

// marked reports whether a declaration's doc comment carries the
// exemption marker with a reason.
func marked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if reason, ok := strings.CutPrefix(c.Text, unusedExportMarker); ok && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}

// funcName is fd's name as Recv.Name, or Name for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
