package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation-inducing constructs inside //dvlint:hotpath
// scopes.
//
// ROADMAP item 4 drives the steady-state simulation loop toward zero
// allocations; this analyzer is the mechanical half of that contract. Any
// function (or package) marked hot must not, per call: allocate a closure,
// build strings through fmt or concatenation, box a concrete value into an
// interface parameter, grow an unpreallocated slice inside a loop, or
// evaluate an allocating composite literal (&T{...}, []T{...},
// map[K]V{...}) or make(). Panic arguments are exempt — a panicking hot
// path is already dead — as are immediately-invoked function literals,
// which the compiler inlines. Sanctioned allocations (free-list grow
// paths, setup inside a hot package) carry justified //dvlint:ignore
// directives; everything else is fixed.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation-inducing constructs inside //dvlint:hotpath scopes",
	Run:  runHotAlloc,
}

// allocFmtFuncs are the fmt functions that allocate on every call: the
// formatting machinery itself plus the returned string or []byte.
var allocFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
}

func runHotAlloc(p *Pass) {
	hot := hotScopes(p.Pkg)
	for _, pos := range hot.misplaced {
		p.Reportf(pos,
			"misplaced %s directive: attach it to a function declaration or the package clause",
			hotpathPrefix)
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hot.covers(fd) {
				continue
			}
			checkHotBody(p, fd.Body)
		}
	}
}

// checkHotBody inspects one hot function body, tracking ancestry so loop
// context, panic arguments and immediate closure calls can be recognised.
func checkHotBody(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	var stack []ast.Node
	parent := func() ast.Node {
		if len(stack) < 2 {
			return nil
		}
		return stack[len(stack)-2]
	}
	inPanic := func() bool {
		for _, n := range stack {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "panic" && isBuiltin(info, id) {
				return true
			}
		}
		return false
	}
	inLoop := func() bool {
		// The last element is the node under inspection itself.
		for _, n := range stack[:len(stack)-1] {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			if call, ok := parent().(*ast.CallExpr); ok && call.Fun == n {
				return true // immediately invoked: inlined, no closure object
			}
			p.Reportf(n.Pos(), "closure allocates in hot path; hoist it to setup and reuse it")

		case *ast.CallExpr:
			checkHotCall(p, n, inPanic, inLoop, body)

		case *ast.CompositeLit:
			if inPanic() {
				return true
			}
			if u, ok := parent().(*ast.UnaryExpr); ok && u.Op == token.AND {
				p.Reportf(u.Pos(), "&composite literal allocates in hot path; reuse pooled or preallocated storage")
				return true
			}
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					p.Reportf(n.Pos(), "slice literal allocates in hot path; hoist it to a package variable or preallocate")
				case *types.Map:
					p.Reportf(n.Pos(), "map literal allocates in hot path; hoist it to setup")
				}
			}

		case *ast.BinaryExpr:
			if n.Op != token.ADD || inPanic() {
				return true
			}
			tv, ok := info.Types[n]
			if !ok || tv.Value != nil || !isStringType(tv.Type) {
				return true
			}
			// Report only the outermost + of a concatenation chain.
			if pb, ok := parent().(*ast.BinaryExpr); ok && pb.Op == token.ADD {
				if ptv, ok := info.Types[pb]; ok && isStringType(ptv.Type) {
					return true
				}
			}
			p.Reportf(n.Pos(), "string concatenation allocates in hot path; precompute or use fixed buffers")

		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && !inPanic() {
				if tv, ok := info.Types[n.Lhs[0]]; ok && isStringType(tv.Type) {
					p.Reportf(n.Pos(), "string concatenation allocates in hot path; precompute or use fixed buffers")
				}
			}
		}
		return true
	})
}

// checkHotCall applies the call-site rules: allocating fmt helpers, make,
// unpreallocated append-in-loop growth, and interface boxing of concrete
// arguments.
func checkHotCall(p *Pass, call *ast.CallExpr, inPanic, inLoop func() bool, body *ast.BlockStmt) {
	info := p.Pkg.Info
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(info, id) {
		switch id.Name {
		case "make":
			if !inPanic() {
				p.Reportf(call.Pos(), "make allocates in hot path; hoist the allocation to setup and reuse it")
			}
		case "append":
			if inLoop() && len(call.Args) > 0 {
				if target := rootIdent(call.Args[0]); target != nil &&
					declaredWithoutCapacity(info, body, target) {
					p.Reportf(call.Pos(),
						"append to %s in a hot-path loop without preallocation; size the slice up front",
						target.Name)
				}
			}
		}
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := useOf(info, sel); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			if allocFmtFuncs[obj.Name()] && !inPanic() {
				p.Reportf(call.Pos(), "fmt.%s allocates in hot path; precompute the string or record raw fields",
					obj.Name())
			}
			return // fmt's ...any boxing is subsumed by the report above
		}
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || inPanic() {
		return
	}
	checkBoxing(p, call, sig)
}

// checkBoxing reports concrete non-pointer values passed to interface
// parameters: each such call site allocates to box the value.
func checkBoxing(p *Pass, call *ast.CallExpr, sig *types.Signature) {
	info := p.Pkg.Info
	params := sig.Params()
	if params.Len() == 0 || call.Ellipsis != token.NoPos {
		return
	}
	paramType := func(i int) types.Type {
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				return sl.Elem()
			}
			return last
		}
		if i < params.Len() {
			return params.At(i).Type()
		}
		return nil
	}
	for i, arg := range call.Args {
		pt := paramType(i)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Value != nil || atv.IsNil() || atv.Type == nil {
			continue // constants and nil box without a per-call heap object
		}
		switch atv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan, *types.Slice:
			continue // already boxed, or a reference type: no new heap object
		}
		p.Reportf(arg.Pos(),
			"argument boxes a %s into an interface parameter in hot path; pass a pointer or restructure the call",
			atv.Type)
	}
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// declaredWithoutCapacity reports whether target is a slice declared in
// this function body with no capacity to grow into: `var s []T`,
// `s := []T{}` or an uncapped make. Slices preallocated with an explicit
// capacity, resliced from existing storage (s := b[:0]), or owned by an
// enclosing scope (fields, parameters, package variables — whose
// preallocation this function cannot see) are exempt.
func declaredWithoutCapacity(info *types.Info, body *ast.BlockStmt, target *ast.Ident) bool {
	obj := info.Uses[target]
	if obj == nil {
		obj = info.Defs[target]
	}
	if obj == nil || obj.Pos() < body.Pos() || obj.Pos() > body.End() {
		return false // declared outside this body: assume the owner presized it
	}
	uncapped := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.Defs[name] != obj {
					continue
				}
				if len(n.Values) == 0 {
					uncapped = true // var s []T
				} else if i < len(n.Values) {
					uncapped = uncapped || rhsLacksCapacity(info, n.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || (info.Defs[id] != obj && info.Uses[id] != obj) {
					continue
				}
				if i < len(n.Rhs) {
					uncapped = uncapped || rhsLacksCapacity(info, n.Rhs[i])
				}
			}
		}
		return true
	})
	return uncapped
}

// rhsLacksCapacity classifies a slice initialiser: empty literals and
// two-argument make calls leave nothing to grow into; capped makes,
// reslices and calls are treated as preallocated.
func rhsLacksCapacity(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltin(info, id) {
			return len(e.Args) < 3 // make([]T, n) grows past n immediately under append
		}
		return false
	case *ast.SliceExpr:
		return false // backed by existing storage
	}
	return false
}
