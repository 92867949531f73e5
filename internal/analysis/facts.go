package analysis

// Fact propagation: per-function summaries computed over every loaded
// package, giving analyzers one-level-deep interprocedural power while
// staying stdlib-only and offline.
//
// The go list -deps loader emits packages in dependency order, so by the
// time a package is summarized every module function it can statically call
// has already been summarized — the summaries are therefore available across
// package boundaries (a pass over kstm/server can ask what a kstm/cmd/kstmd
// function touches, because facts for the whole program are computed before
// any analyzer runs). Summaries are intraprocedural on purpose: a consumer
// looking one call level deep sees precise per-body information instead of a
// transitively-smeared approximation that would flag every entry point.
//
// Each summary records, with source positions:
//
//   - heap allocations: from the compiler's -gcflags=-m escape diagnostics
//     when available (see escape.go), else a static approximation (make,
//     new, &T{...}, map/slice literals, append, string concatenation,
//     []byte/string conversions);
//   - blocking operations: channel send/receive, select without default,
//     sync.Cond.Wait, sync.WaitGroup.Wait, time.Sleep, core.Future.Wait —
//     each with the set of locks held at that point (and, for Cond.Wait,
//     the waited Cond, whose bound lock Wait releases);
//   - Cond bindings: c.L = &mu and c = sync.NewCond(&mu), naming the lock
//     a Cond's Wait releases;
//   - clock reads: time.Now and time.Since;
//   - lock acquisitions: sync.Mutex/RWMutex Lock/RLock with the locks
//     already held at the acquisition (the lock-order graph's edges);
//   - static calls: every resolvable callee with the locks held at the call
//     site (how lockorder and hotpathalloc look one level deep);
//   - struct field references: every field read, written, or named in a
//     composite literal (how statsfold checks cross-package folds);
//   - closures and go statements (hot-path capture/spawn bans).
//
// Dynamic dispatch (interface method calls, function values) is invisible to
// the call records: a callee that cannot be resolved statically simply has
// no summary, and consumers treat the call as opaque. DESIGN.md §8 states
// this limitation alongside each analyzer's contract.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// FuncKey returns the canonical fact-table key for a function or method:
// pkgpath.Name for functions, pkgpath.Recv.Name for methods (pointer
// receivers stripped, so (*Executor).Stats and Executor.Stats share a key).
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := NamedType(sig.Recv().Type()); n != nil {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// HotpathDirective marks a function whose body must satisfy the
// allocation-free contract hotpathalloc enforces.
const HotpathDirective = "//kstmvet:hotpath"

// AllocUse is one heap allocation in a function body. Escape-derived entries
// carry the compiler's own diagnostic and a file position; static entries
// carry a syntactic description and a token.Pos. ColdErrPath marks
// allocations inside a `return fmt.Errorf(...)`/`errors.New` statement:
// error construction happens once on the failure path, and the hot-path
// contract deliberately tolerates it (DESIGN.md §8.5).
type AllocUse struct {
	What        string
	Pos         token.Pos // static entries
	File        string    // escape-derived entries
	Line        int
	Col         int
	ColdErrPath bool
}

// BlockUse is one potentially-blocking operation, with the locks held there.
// Cond names the waited Cond of a sync.Cond.Wait (its declaration identity,
// as for locks), "" otherwise.
type BlockUse struct {
	What string
	Pos  token.Pos
	Held []string
	Cond string
}

// ClockUse is one time.Now/time.Since read.
type ClockUse struct {
	What string
	Pos  token.Pos
}

// LockUse is one lock acquisition, with the locks already held before it —
// each (held, acquired) pair is an edge of the lock-order graph.
type LockUse struct {
	ID   string
	Pos  token.Pos
	Held []string
}

// CallUse is one statically-resolved call, with the locks held at the site.
// NilArgs lists the argument positions that pass the literal nil.
type CallUse struct {
	Callee  string
	Pos     token.Pos
	Held    []string
	NilArgs []int
}

// Closure is one function literal; Captures reports whether it closes over
// variables of the enclosing function (a heap allocation per evaluation).
type Closure struct {
	Pos      token.Pos
	Captures bool
}

// FuncFacts is one function's summary.
type FuncFacts struct {
	Key           string
	Hotpath       bool // declaration carries //kstmvet:hotpath
	Allocs        []AllocUse
	EscapeDerived bool // Allocs came from compiler escape diagnostics
	Blocks        []BlockUse
	Clocks        []ClockUse
	Locks         []LockUse
	Calls         []CallUse
	Closures      []Closure
	Gos           []token.Pos
	AppendsInto   []int             // parameter positions passed as append's first argument
	FieldRefs     map[string]bool   // "pkgpath.Type.Field"
	CondLocks     map[string]string // Cond identity → the lock bound as its L here
}

// Allocates reports whether the function's body heap-allocates.
func (ff *FuncFacts) Allocates() bool { return ff != nil && len(ff.Allocs) > 0 }

// BlocksDirectly reports whether the body contains a blocking operation.
func (ff *FuncFacts) BlocksDirectly() bool { return ff != nil && len(ff.Blocks) > 0 }

// ReadsClock reports whether the body reads the monotonic clock.
func (ff *FuncFacts) ReadsClock() bool { return ff != nil && len(ff.Clocks) > 0 }

// Facts is the program-wide fact table: one summary per function, keyed by
// FuncKey, and every Cond binding any of them makes.
type Facts struct {
	Fns       map[string]*FuncFacts
	CondLocks map[string]string // Cond identity → the lock its Wait releases
}

// NewFacts returns an empty table.
func NewFacts() *Facts {
	return &Facts{Fns: make(map[string]*FuncFacts), CondLocks: make(map[string]string)}
}

// HeldAcross returns the locks b holds while it blocks: for a Cond.Wait,
// every held lock but the one the Wait releases.
func (f *Facts) HeldAcross(b BlockUse) []string {
	released := f.CondLocks[b.Cond]
	if released == "" {
		return b.Held
	}
	var held []string
	for _, l := range b.Held {
		if l != released {
			held = append(held, l)
		}
	}
	return held
}

// Of returns the summary for key, or nil if the function was not summarized
// (not loaded from source — stdlib, or reached only dynamically).
func (f *Facts) Of(key string) *FuncFacts { return f.Fns[key] }

// AddPackage summarizes every function declaration in pkg and installs the
// summaries. When esc carries escape diagnostics for the package, allocation
// facts come from the compiler; otherwise from the static approximation.
func (f *Facts) AddPackage(fset *token.FileSet, pkg *Package, esc *Escapes) {
	useEscape := esc != nil && esc.Covers(pkg.Path)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			key := FuncKey(fn)
			if key == "" {
				continue
			}
			ff := summarize(pkg.Info, fd, key, !useEscape)
			ff.Hotpath = HasDirective(fd.Doc, HotpathDirective)
			if useEscape {
				ff.EscapeDerived = true
				ff.Allocs = escapeAllocs(fset, fd, esc)
			}
			markColdErrPaths(fset, pkg.Info, fd, ff.Allocs)
			f.Fns[key] = ff
			for c, l := range ff.CondLocks {
				f.CondLocks[c] = l
			}
		}
	}
}

// escapeAllocs selects the escape diagnostics that fall inside fd's body.
func escapeAllocs(fset *token.FileSet, fd *ast.FuncDecl, esc *Escapes) []AllocUse {
	start := fset.Position(fd.Pos())
	end := fset.Position(fd.End())
	var out []AllocUse
	for _, d := range esc.File(start.Filename) {
		if d.Line >= start.Line && d.Line <= end.Line {
			out = append(out, AllocUse{What: d.Msg, File: start.Filename, Line: d.Line, Col: d.Col})
		}
	}
	return out
}

// heldSet tracks the locks held at a program point.
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

func (h heldSet) snapshot() []string {
	if len(h) == 0 {
		return nil
	}
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// factWalker performs the statement-ordered walk of one function body. The
// flow model matches futureconsume's: statements in order, branch bodies
// analyzed with a copy of the current held set (a branch-local unlock does
// not release the lock for the code after the branch — conservative in the
// direction that finds misordered acquisitions), defer Unlock keeps the lock
// held to function end, closure bodies walked with an empty held set (they
// run later, under whatever locks their caller holds).
type factWalker struct {
	info        *types.Info
	ff          *FuncFacts
	params      map[*types.Var]int // the function's parameters by position
	static      bool               // record static allocation approximations
	noChanBlock bool               // inside a select comm clause: the select governs blocking
}

// summarize walks one function declaration.
func summarize(info *types.Info, fd *ast.FuncDecl, key string, static bool) *FuncFacts {
	ff := &FuncFacts{Key: key, FieldRefs: make(map[string]bool)}
	w := &factWalker{info: info, ff: ff, static: static, params: make(map[*types.Var]int)}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				w.params[v] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	w.walkStmt(fd.Body, make(heldSet))
	return ff
}

func (w *factWalker) walkStmt(s ast.Stmt, held heldSet) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s2 := range st.List {
			w.walkStmt(s2, held)
		}
	case *ast.ExprStmt:
		w.walkExpr(st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.walkExpr(e, held)
		}
		for i, e := range st.Lhs {
			w.walkExpr(e, held)
			if len(st.Rhs) == len(st.Lhs) {
				w.bindCond(e, st.Rhs[i])
			}
		}
	case *ast.IncDecStmt:
		w.walkExpr(st.X, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.walkExpr(e, held)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the remainder of the
		// function (which is exactly how the held set already models it —
		// simply do not release). Other deferred calls are walked normally;
		// a deferred closure runs at exit under an unknowable held set.
		if id := w.lockCallID(st.Call); id != "" && isReleaseName(calleeName(w.info, st.Call)) {
			for _, a := range st.Call.Args {
				w.walkExpr(a, held)
			}
			return
		}
		w.walkExpr(st.Call, held)
	case *ast.GoStmt:
		w.ff.Gos = append(w.ff.Gos, st.Pos())
		w.walkExpr(st.Call, held)
	case *ast.SendStmt:
		if !w.noChanBlock {
			w.ff.Blocks = append(w.ff.Blocks, BlockUse{What: "channel send", Pos: st.Pos(), Held: held.snapshot()})
		}
		w.walkExpr(st.Chan, held)
		w.walkExpr(st.Value, held)
	case *ast.IfStmt:
		w.walkStmt(st.Init, held)
		w.walkExpr(st.Cond, held)
		w.walkStmt(st.Body, held.clone())
		w.walkStmt(st.Else, held.clone())
	case *ast.ForStmt:
		w.walkStmt(st.Init, held)
		w.walkExpr(st.Cond, held)
		body := held.clone()
		w.walkStmt(st.Body, body)
		w.walkStmt(st.Post, body)
	case *ast.RangeStmt:
		w.walkExpr(st.X, held)
		if t := w.typ(st.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok && !w.noChanBlock {
				w.ff.Blocks = append(w.ff.Blocks, BlockUse{What: "range over channel", Pos: st.Pos(), Held: held.snapshot()})
			}
		}
		w.walkStmt(st.Body, held.clone())
	case *ast.SwitchStmt:
		w.walkStmt(st.Init, held)
		w.walkExpr(st.Tag, held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			branch := held.clone()
			for _, e := range cc.List {
				w.walkExpr(e, branch)
			}
			for _, s2 := range cc.Body {
				w.walkStmt(s2, branch)
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init, held)
		w.walkStmt(st.Assign, held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			branch := held.clone()
			for _, s2 := range cc.Body {
				w.walkStmt(s2, branch)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.ff.Blocks = append(w.ff.Blocks, BlockUse{What: "select without default", Pos: st.Pos(), Held: held.snapshot()})
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			branch := held.clone()
			// The comm clause's channel operation is governed by the select
			// itself (non-blocking when a default exists), so the walk must
			// not double-count it as an independent blocking site.
			w.noChanBlock = true
			w.walkStmt(cc.Comm, branch)
			w.noChanBlock = false
			for _, s2 := range cc.Body {
				w.walkStmt(s2, branch)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, held)
	}
}

func (w *factWalker) walkExpr(e ast.Expr, held heldSet) {
	switch ex := e.(type) {
	case nil:
	case *ast.ParenExpr:
		w.walkExpr(ex.X, held)
	case *ast.CallExpr:
		w.walkCall(ex, held)
	case *ast.FuncLit:
		w.ff.Closures = append(w.ff.Closures, Closure{Pos: ex.Pos(), Captures: capturesOuter(w.info, ex)})
		w.walkStmt(ex.Body, make(heldSet))
	case *ast.UnaryExpr:
		if ex.Op == token.ARROW && !w.noChanBlock {
			w.ff.Blocks = append(w.ff.Blocks, BlockUse{What: "channel receive", Pos: ex.Pos(), Held: held.snapshot()})
		}
		if ex.Op == token.AND && w.static {
			if _, ok := ex.X.(*ast.CompositeLit); ok {
				w.staticAlloc("address of composite literal", ex.Pos())
			}
		}
		w.walkExpr(ex.X, held)
	case *ast.BinaryExpr:
		if ex.Op == token.ADD && w.static {
			if t := w.typ(ex.X); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.staticAlloc("string concatenation", ex.Pos())
				}
			}
		}
		w.walkExpr(ex.X, held)
		w.walkExpr(ex.Y, held)
	case *ast.CompositeLit:
		w.fieldRefsOfLit(ex)
		if w.static {
			if t := w.typ(ex); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					w.staticAlloc("map literal", ex.Pos())
				case *types.Slice:
					w.staticAlloc("slice literal", ex.Pos())
				}
			}
		}
		for _, elt := range ex.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.walkExpr(kv.Value, held)
				continue
			}
			w.walkExpr(elt, held)
		}
	case *ast.SelectorExpr:
		if sel := w.info.Selections[ex]; sel != nil && sel.Kind() == types.FieldVal {
			w.addFieldRef(sel.Recv(), sel.Obj().Name())
		}
		w.walkExpr(ex.X, held)
	case *ast.IndexExpr:
		w.walkExpr(ex.X, held)
		w.walkExpr(ex.Index, held)
	case *ast.IndexListExpr:
		w.walkExpr(ex.X, held)
	case *ast.SliceExpr:
		w.walkExpr(ex.X, held)
		w.walkExpr(ex.Low, held)
		w.walkExpr(ex.High, held)
		w.walkExpr(ex.Max, held)
	case *ast.StarExpr:
		w.walkExpr(ex.X, held)
	case *ast.TypeAssertExpr:
		w.walkExpr(ex.X, held)
	case *ast.KeyValueExpr:
		w.walkExpr(ex.Value, held)
	}
}

// walkCall handles one call expression: lock transitions, blocking and clock
// tables, static-callee records, builtin/conversion allocations, and boxing.
func (w *factWalker) walkCall(call *ast.CallExpr, held heldSet) {
	// Builtins and conversions first: they have no *types.Func callee.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			if w.static {
				switch b.Name() {
				case "make":
					w.staticAlloc("make", call.Pos())
				case "new":
					w.staticAlloc("new", call.Pos())
				case "append":
					w.staticAlloc("append", call.Pos())
				}
			}
			if b.Name() == "append" && len(call.Args) > 0 {
				// A parameter appended into: a caller that passes nil for it
				// allocates a fresh backing array on every call.
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					v, _ := w.info.Uses[id].(*types.Var)
					if i, ok := w.params[v]; ok && !slices.Contains(w.ff.AppendsInto, i) {
						w.ff.AppendsInto = append(w.ff.AppendsInto, i)
					}
				}
			}
			for _, a := range call.Args {
				w.walkExpr(a, held)
			}
			return
		}
	}
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. []byte(s) / string(b) copy into fresh storage; a
		// conversion of a non-pointer concrete value to an interface boxes.
		if w.static {
			dst := tv.Type
			src := w.typ(call.Args[0])
			if isByteStringConv(dst, src) {
				w.staticAlloc("[]byte/string conversion", call.Pos())
			}
			if types.IsInterface(dst.Underlying()) && src != nil && !types.IsInterface(src.Underlying()) {
				if _, isPtr := src.Underlying().(*types.Pointer); !isPtr {
					w.staticAlloc("boxes "+src.String()+" into interface", call.Pos())
				}
			}
		}
		for _, a := range call.Args {
			w.walkExpr(a, held)
		}
		return
	}

	fn := Callee(w.info, call)
	if fn != nil {
		key := FuncKey(fn)
		if id := w.lockCallID(call); id != "" {
			name := fn.Name()
			switch {
			case name == "Lock" || name == "RLock":
				w.ff.Locks = append(w.ff.Locks, LockUse{ID: id, Pos: call.Pos(), Held: held.snapshot()})
				held[id] = true
			case isReleaseName(name):
				delete(held, id)
			}
		} else if what, ok := blockingCalls[key]; ok {
			b := BlockUse{What: what, Pos: call.Pos(), Held: held.snapshot()}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && key == "sync.Cond.Wait" {
				b.Cond = w.lockID(sel.X)
			}
			w.ff.Blocks = append(w.ff.Blocks, b)
		} else if key == "time.Now" || key == "time.Since" {
			w.ff.Clocks = append(w.ff.Clocks, ClockUse{What: key, Pos: call.Pos()})
		}
		cu := CallUse{Callee: key, Pos: call.Pos(), Held: held.snapshot()}
		for i, a := range call.Args {
			if tv, ok := w.info.Types[a]; ok && tv.IsNil() {
				cu.NilArgs = append(cu.NilArgs, i)
			}
		}
		w.ff.Calls = append(w.ff.Calls, cu)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X, held)
	}
	for _, a := range call.Args {
		w.walkExpr(a, held)
	}
}

// blockingCalls names functions that block by contract: the deny-list the
// summaries consult directly (one level deeper than syntax can see).
var blockingCalls = map[string]string{
	"time.Sleep":                   "time.Sleep",
	"sync.Cond.Wait":               "sync.Cond.Wait",
	"sync.WaitGroup.Wait":          "sync.WaitGroup.Wait",
	CorePath + ".Future.Wait":      "Future.Wait",
	CorePath + ".Future.WaitValue": "Future.WaitValue",
}

// bindCond records lhs = rhs when it binds a Cond to the lock its Wait
// releases: c.L = &mu, or c = sync.NewCond(&mu).
func (w *factWalker) bindCond(lhs, rhs ast.Expr) {
	var cond string
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "L" && IsNamed(w.typ(sel.X), "sync", "Cond") {
		cond = w.lockID(sel.X)
	} else if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && len(call.Args) == 1 && FuncKey(Callee(w.info, call)) == "sync.NewCond" {
		cond, rhs = w.lockID(lhs), call.Args[0]
	}
	addr, ok := ast.Unparen(rhs).(*ast.UnaryExpr)
	if cond == "" || !ok || addr.Op != token.AND {
		return
	}
	if lock := w.lockID(addr.X); lock != "" {
		if w.ff.CondLocks == nil {
			w.ff.CondLocks = make(map[string]string)
		}
		w.ff.CondLocks[cond] = lock
	}
}

// lockCallID reports the lock identity a call acquires or releases, or ""
// when the call is not a sync.Mutex/RWMutex method. Identities name the
// declaration site, not the instance: a struct field lock is
// "pkgpath.Owner.field", a package-level lock "pkgpath.name", a
// function-local lock "funckey.name" — the granularity at which an
// acquisition ORDER is a meaningful global contract.
func (w *factWalker) lockCallID(call *ast.CallExpr) string {
	fn := Callee(w.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return ""
	}
	recv := NamedType(recvType(fn))
	if recv == nil {
		return ""
	}
	switch recv.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return w.lockID(sel.X)
}

// lockID names the lock an expression denotes; see lockCallID.
func (w *factWalker) lockID(x ast.Expr) string {
	x = ast.Unparen(x)
	switch v := x.(type) {
	case *ast.SelectorExpr:
		if sel := w.info.Selections[v]; sel != nil && sel.Kind() == types.FieldVal {
			if owner := NamedType(sel.Recv()); owner != nil && owner.Obj().Pkg() != nil {
				return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + sel.Obj().Name()
			}
		}
		if v2, ok := w.info.Uses[v.Sel].(*types.Var); ok && v2.Pkg() != nil {
			return v2.Pkg().Path() + "." + v2.Name()
		}
	case *ast.Ident:
		if v2 := VarOf(w.info, v); v2 != nil && v2.Pkg() != nil {
			if v2.Parent() == v2.Pkg().Scope() {
				return v2.Pkg().Path() + "." + v2.Name()
			}
			return w.ff.Key + "." + v2.Name()
		}
	case *ast.IndexExpr:
		// locks[i] — conflate all elements: ordering contracts are stated
		// per declaration, and a same-slice nested acquisition shows up as a
		// (skipped) self-edge rather than a false cycle.
		if t := w.typ(v); t != nil {
			if n := NamedType(t); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "[]"
			}
		}
		return w.lockID(v.X)
	}
	return ""
}

func (w *factWalker) typ(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := w.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *factWalker) staticAlloc(what string, pos token.Pos) {
	w.ff.Allocs = append(w.ff.Allocs, AllocUse{What: what, Pos: pos})
}

// fieldRefsOfLit records the fields a struct composite literal names: keyed
// elements reference their keys; an unkeyed literal positionally references
// every field (which is exactly why statsfold accepts it as a full fold).
func (w *factWalker) fieldRefsOfLit(lit *ast.CompositeLit) {
	t := w.typ(lit)
	n := NamedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	keyed := false
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			keyed = true
			if id, ok := kv.Key.(*ast.Ident); ok {
				w.addFieldRef(t, id.Name)
			}
		}
	}
	if !keyed && len(lit.Elts) > 0 {
		for i := 0; i < st.NumFields(); i++ {
			w.addFieldRef(t, st.Field(i).Name())
		}
	}
}

func (w *factWalker) addFieldRef(owner types.Type, field string) {
	n := NamedType(owner)
	if n == nil || n.Obj().Pkg() == nil {
		return
	}
	w.ff.FieldRefs[n.Obj().Pkg().Path()+"."+n.Obj().Name()+"."+field] = true
}

// FieldID is the fact-table key for a struct field, matching FieldRefs.
func FieldID(pkg *types.Package, typeName, field string) string {
	return pkg.Path() + "." + typeName + "." + field
}

// recvType returns fn's receiver type, or nil for plain functions.
func recvType(fn *types.Func) types.Type {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return sig.Recv().Type()
	}
	return nil
}

func isReleaseName(name string) bool { return name == "Unlock" || name == "RUnlock" }

// calleeName is the bare method/function name of a call, or "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := Callee(info, call); fn != nil {
		return fn.Name()
	}
	return ""
}

// isByteStringConv reports []byte(string) and string([]byte) conversions.
func isByteStringConv(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// HasDirective reports whether a comment group contains the directive as a
// standalone line comment (optionally followed by arguments).
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || (len(c.Text) > len(directive) &&
			c.Text[:len(directive)] == directive && (c.Text[len(directive)] == ' ' || c.Text[len(directive)] == '\t')) {
			return true
		}
	}
	return false
}

// markColdErrPaths flags allocations positioned inside a return statement
// that constructs an error (fmt.Errorf, errors.New): the once-per-failure
// cold path the hot-path contract tolerates.
func markColdErrPaths(fset *token.FileSet, info *types.Info, fd *ast.FuncDecl, allocs []AllocUse) {
	if len(allocs) == 0 {
		return
	}
	var errReturns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		inErr := false
		ast.Inspect(ret, func(n2 ast.Node) bool {
			if inErr {
				return false
			}
			if call, ok := n2.(*ast.CallExpr); ok {
				switch FuncKey(Callee(info, call)) {
				case "fmt.Errorf", "errors.New", "errors.Join":
					inErr = true
				}
			}
			return true
		})
		if inErr {
			errReturns = append(errReturns, ret)
		}
		return true
	})
	if len(errReturns) == 0 {
		return
	}
	tf := fset.File(fd.Pos())
	for i := range allocs {
		pos := allocs[i].Pos
		if !pos.IsValid() {
			// Escape-derived entry: rebuild a Pos from the file coordinates.
			if tf == nil || allocs[i].Line < 1 || allocs[i].Line > tf.LineCount() {
				continue
			}
			pos = tf.LineStart(allocs[i].Line) + token.Pos(allocs[i].Col-1)
		}
		for _, ret := range errReturns {
			if ret.Pos() <= pos && pos < ret.End() {
				allocs[i].ColdErrPath = true
				break
			}
		}
	}
}

// capturesOuter reports whether a function literal references variables
// declared outside itself (other than package-level ones) — the captures
// that force a closure allocation per evaluation.
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level: not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}
