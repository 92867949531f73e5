// Package hotpathalloc enforces the allocation-free contract on functions
// marked //kstmvet:hotpath: the submission, dispatch, settle/recycle, and
// wire encode/decode paths whose per-operation budget (DESIGN.md §5, §8.5)
// leaves no room for heap traffic.
//
// An annotated function must not:
//
//   - heap-allocate (verified against the compiler's own -gcflags=-m escape
//     diagnostics when the CLI collected them, else against the static
//     approximation — see internal/analysis/facts.go);
//   - box a value into an interface, capture variables in a closure, or
//     spawn a goroutine;
//   - read the clock (time.Now / time.Since);
//   - block (channel operations, select without default, Future.Wait);
//   - call deny-listed formatting/logging/reflection APIs;
//   - call a module function whose facts say it heap-allocates (the
//     one-level-deep interprocedural check).
//
// Error construction on a failure return (`return fmt.Errorf(...)`) is
// tolerated: it executes once per failure, not per operation. The runtime
// AllocsPerRun gates in internal/core remain the ground truth; this analyzer
// turns the same budget into a build break (DESIGN.md §8.6).
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"kstm/internal/analysis"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "//kstmvet:hotpath functions must not allocate, block, or read the clock",
	Run:  run,
}

// denyPrefixes lists callee-key prefixes banned on the hot path outright,
// with the reason reported. fmt.Errorf is exempted separately: it appears
// only on cold error returns, which the allocation check already tolerates.
var denyPrefixes = []struct{ prefix, why string }{
	{"fmt.", "formats into fresh allocations"},
	{"log.", "logging belongs off the hot path"},
	{"sort.Slice", "boxes the slice into an interface per call"},
	{"reflect.", "reflection allocates and defeats inlining"},
	{"os.", "operating-system calls are unbounded"},
	{"runtime.GC", "forces a collection"},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasDirective(fd.Doc, analysis.HotpathDirective) {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			check(pass, analysis.FuncKey(fn))
		}
	}
	return nil
}

// check reports every hot-path contract violation recorded in one annotated
// function's facts.
func check(pass *analysis.Pass, key string) {
	ff := pass.Facts.Of(key)
	if ff == nil {
		return
	}
	for _, a := range ff.Allocs {
		if a.ColdErrPath {
			continue
		}
		if a.File != "" {
			pass.ReportLinef(a.File, a.Line, a.Col, "hot path heap allocation: %s", a.What)
		} else {
			pass.Reportf(a.Pos, "hot path heap allocation: %s", a.What)
		}
	}
	for _, c := range ff.Clocks {
		pass.Reportf(c.Pos, "hot path reads the clock: %s", c.What)
	}
	for _, cl := range ff.Closures {
		if cl.Captures {
			pass.Reportf(cl.Pos, "hot path closure captures variables (allocates per evaluation)")
		}
	}
	for _, g := range ff.Gos {
		pass.Reportf(g, "hot path spawns a goroutine")
	}
	for _, b := range ff.Blocks {
		pass.Reportf(b.Pos, "hot path blocking operation: %s", b.What)
	}
	for _, c := range ff.Calls {
		if c.Callee == "fmt.Errorf" {
			continue
		}
		if deny, why := denied(c.Callee); deny {
			pass.Reportf(c.Pos, "hot path calls deny-listed %s: %s", c.Callee, why)
			continue
		}
		// One level deep: a call into a summarized (module or fixture)
		// function that itself heap-allocates on its warm path. Annotated
		// callees are skipped — they are checked at their own declaration.
		cf := pass.Facts.Of(c.Callee)
		if cf == nil || cf.Hotpath {
			continue
		}
		if warmAllocates(cf) {
			pass.Reportf(c.Pos, "hot path calls %s, which heap-allocates", c.Callee)
		}
	}
}

// warmAllocates reports whether a callee's facts record an allocation
// outside cold error returns.
func warmAllocates(ff *analysis.FuncFacts) bool {
	for _, a := range ff.Allocs {
		if !a.ColdErrPath {
			return true
		}
	}
	return false
}

// denied matches a callee key against the deny list.
func denied(key string) (bool, string) {
	for _, d := range denyPrefixes {
		if strings.HasPrefix(key, d.prefix) {
			return true, d.why
		}
	}
	return false, ""
}
