package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocFree is the source-level twin of the pds-benchdiff alloc gate
// (ROADMAP "drive steady-state allocations to ~zero"): functions
// annotated //pds:hotpath — plus a seeded list covering wire
// encode/decode, radio delivery, spatial scans, disabled-tracer paths
// and metrics.Pool — must contain no allocating constructs. The
// benchmark gate catches a regression after it moves BENCH_PDS.json;
// this analyzer points at the exact line before it lands.
//
// Flagged inside a hot-path function:
//
//   - make(...), new(...), composite literals (incl. &T{...}) — fresh
//     heap or escaping memory;
//   - closure literals, except comparators passed directly to
//     sort/slices calls (those never escape);
//   - go statements (a goroutine per hot event);
//   - runtime string concatenation and string<->[]byte conversions;
//   - fmt/log calls, except fmt.Errorf inside a return statement —
//     constructing the error return on the cold failure path is fine;
//   - interface boxing of non-pointer-shaped arguments (the compiler
//     heap-allocates the value word);
//   - append whose destination's capacity provenance is unknown: not a
//     parameter, receiver field, package-level buffer, or a slice the
//     dataflow engine proves locally constructed (whose creation site
//     is flagged instead);
//   - Append*(nil) — the call exists only to allocate a fresh slice.
//
// A function whose body begins with the nil-receiver guard
// (if t == nil { return }) is a disabled-path wrapper: only the guard
// is hot, so the rest of the body is not scanned. The audited
// //lint:allow allocfree escape hatch covers the rest.
var AllocFree = &Analyzer{
	Name:    "allocfree",
	Doc:     "forbids allocating constructs in //pds:hotpath functions and the seeded hot-path list",
	Section: "DESIGN.md §17 (dataflow lint & source-level alloc gate)",
	Run:     runAllocFree,
}

// hotSeed names a function that must carry //pds:hotpath: the package
// path suffix, receiver type name ("" for plain functions), and the
// function name. The list is the floor, not the ceiling — annotations
// elsewhere are picked up wherever they appear.
type hotSeed struct{ pkgSuffix, recv, name string }

var hotpathSeeds = []hotSeed{
	{"/internal/wire", "", "AppendEncode"},
	{"/internal/wire", "", "EncodedSize"},
	{"/internal/wire", "", "appendQuery"},
	{"/internal/wire", "", "appendResponse"},
	{"/internal/wire", "", "appendNodeIDs"},
	{"/internal/wire", "", "appendInts"},
	{"/internal/radio", "Medium", "finishTransmission"},
	{"/internal/radio", "Medium", "candidates"},
	{"/internal/radio", "Medium", "collided"},
	{"/internal/radio", "Medium", "overlapping"},
	{"/internal/radio", "Medium", "busyFor"},
	{"/internal/radio", "Medium", "busyUntil"},
	{"/internal/spatial", "Grid", "VisitNeighborhood"},
	{"/internal/spatial", "Grid", "AppendNeighborhood"},
	{"/internal/trace", "Tracer", "FrameTx"},
	{"/internal/trace", "Tracer", "Frame"},
	{"/internal/metrics", "Pool", "Add"},
	{"/internal/metrics", "Pool", "AddDuration"},
	{"/internal/attr", "Descriptor", "EncodedSize"},
	{"/internal/attr", "Query", "EncodedSize"},
	{"/internal/bloom", "Filter", "EncodedSize"},
	// Fixture-only seed exercising the missing-annotation diagnostic.
	{"fixture/allocfree", "", "seededEncode"},
}

// hotpathAnnotated reports whether the declaration's doc group carries
// the //pds:hotpath marker.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//pds:hotpath" {
			return true
		}
	}
	return false
}

// recvTypeName returns the receiver's named type ("" for functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func seededHotpath(pkgPath string, fd *ast.FuncDecl) bool {
	recv := recvTypeName(fd)
	for _, s := range hotpathSeeds {
		if s.name == fd.Name.Name && s.recv == recv && strings.HasSuffix(pkgPath, s.pkgSuffix) {
			return true
		}
	}
	return false
}

func runAllocFree(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			annotated := hotpathAnnotated(fd)
			seeded := seededHotpath(p.Pkg.Path, fd)
			if seeded && !annotated {
				p.Reportf(fd.Pos(), "seeded hot path %s lacks the //pds:hotpath annotation; annotate it so the alloc gate is visible at the declaration", fd.Name.Name)
			}
			if !annotated && !seeded {
				continue
			}
			if guard := nilReceiverGuard(fd); guard {
				continue // disabled-path wrapper: only the guard is hot
			}
			fl := newFuncFlow(p, fd, flowConfig{})
			checkAllocFree(p, fl, fd)
		}
	}
}

// nilReceiverGuard reports whether the body's first statement is the
// if-nil-return fast path on the receiver (the disabled-tracer shape).
func nilReceiverGuard(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	if len(fd.Body.List) == 0 {
		return false
	}
	return toleratesNil(fd.Body.List[0], fd.Recv.List[0].Names[0].Name)
}

func checkAllocFree(p *Pass, fl *funcFlow, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	fname := fd.Name.Name

	// Parameters, receiver and package-level vars are caller-managed
	// buffers: append into them has audited capacity provenance.
	callerManaged := make(map[types.Object]bool)
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if obj := info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			callerManaged[obj] = true
		}
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				callerManaged[obj] = true
			}
		}
	}
	// Named results are written by the function itself but returned to
	// the caller; treat like params for append provenance.
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					callerManaged[obj] = true
				}
			}
		}
	}
	managedBase := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				obj := usedObj(info, x)
				if obj == nil {
					// A package selector base (pkg.Var) resolves the
					// selector, not the ident; treat as package-level.
					return true
				}
				if callerManaged[obj] {
					return true
				}
				// Package-level buffer.
				if v, ok := obj.(*types.Var); ok && v.Parent() == p.Pkg.Types.Scope() {
					return true
				}
				return false
			default:
				return false
			}
		}
	}

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "go statement in hot path %s spawns a goroutine per event; use a persistent worker or inline the work", fname)
		case *ast.CompositeLit:
			// Slice and map literals always allocate their backing
			// store. Struct/array literals are stack values unless
			// their address is taken (&T{...}); escaping by boxing is
			// the interface rule's job.
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				p.Reportf(n.Pos(), "composite literal allocates in hot path %s; hoist it to a package-level value or reuse a buffer", fname)
			default:
				if len(stack) > 0 {
					if ue, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && ue.Op == token.AND {
						p.Reportf(ue.Pos(), "composite literal allocates in hot path %s; hoist it to a package-level value or reuse a buffer", fname)
					}
				}
			}
		case *ast.FuncLit:
			if sortComparator(info, n, stack) {
				return true
			}
			p.Reportf(n.Pos(), "closure literal in hot path %s may allocate its environment; hoist it to a method or package-level func", fname)
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Value == nil && isStringType(tv.Type) {
				p.Reportf(n.Pos(), "runtime string concatenation in hot path %s allocates; use an append-based builder", fname)
			}
		case *ast.CallExpr:
			checkAllocCall(p, fl, n, stack, fname, managedBase)
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sortComparator reports whether the closure is passed directly to a
// sort or slices call — those comparators never escape, so the closure
// stays on the stack.
func sortComparator(info *types.Info, lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	path, _, ok := pkgFuncCall(info, call)
	if !ok {
		return false
	}
	return path == "sort" || path == "slices"
}

func checkAllocCall(p *Pass, fl *funcFlow, call *ast.CallExpr, stack []ast.Node, fname string, managedBase func(ast.Expr) bool) {
	info := p.Pkg.Info

	// Builtins: make/new always allocate; append needs provenance.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				p.Reportf(call.Pos(), "make in hot path %s allocates; preallocate outside the hot loop or reuse a pooled buffer", fname)
			case "new":
				p.Reportf(call.Pos(), "new in hot path %s allocates; reuse a pooled object", fname)
			case "append":
				if len(call.Args) == 0 {
					return
				}
				dst := call.Args[0]
				if fl.exprOwned(dst) || managedBase(dst) {
					return // creation site flagged, or caller-managed cap
				}
				p.Reportf(call.Pos(), "append in hot path %s has unknown capacity provenance (destination is neither a parameter, receiver/package buffer, nor locally constructed); grow a reused buffer instead", fname)
			}
			return
		}
	}

	// Conversions: string<->[]byte copy; other conversions are free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if to != nil && from != nil {
			toStr, fromStr := isStringType(to), isStringType(from)
			_, toSlice := to.Underlying().(*types.Slice)
			_, fromSlice := from.Underlying().(*types.Slice)
			if cv, okc := info.Types[call.Args[0]]; okc && cv.Value != nil {
				return // constant-folded
			}
			if (toStr && fromSlice) || (toSlice && fromStr) {
				p.Reportf(call.Pos(), "string/[]byte conversion in hot path %s copies; keep one representation across the path", fname)
			}
		}
		return
	}

	// fmt/log calls: formatted I/O allocates its argument slice and
	// boxes every operand. fmt.Errorf directly inside a return is the
	// cold error path and stays allowed.
	if path, name, ok := pkgFuncCall(info, call); ok {
		if path == "fmt" || path == "log" {
			if path == "fmt" && name == "Errorf" && insideReturn(stack) {
				return
			}
			p.Reportf(call.Pos(), "%s.%s in hot path %s allocates (format state + boxed operands); trace or count instead", path, name, fname)
			return
		}
	}

	// Append*(nil): the call's only purpose is to allocate the result.
	if calleeName(call) != "" && strings.HasPrefix(calleeName(call), "Append") && len(call.Args) > 0 {
		if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "nil" {
			p.Reportf(call.Pos(), "%s(nil) in hot path %s allocates a fresh slice per call; pass a reused buffer or use an analytic size", calleeName(call), fname)
		}
	}

	// Interface boxing: a non-pointer-shaped concrete argument passed
	// to an interface parameter heap-allocates the value word.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... forwards the slice, no boxing here
			}
			if sl, okSl := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); okSl {
				paramT = sl.Elem()
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, okv := info.Types[arg]; okv && tv.Value != nil {
			continue // constants may still box, but the common ones are interned
		}
		if bt, okb := at.Underlying().(*types.Basic); okb && bt.Kind() == types.UntypedNil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue // pointer-shaped: fits the interface word directly
		}
		p.Reportf(arg.Pos(), "interface boxing of non-pointer value in hot path %s allocates; pass a pointer or keep the call monomorphic", fname)
	}
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func insideReturn(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}
