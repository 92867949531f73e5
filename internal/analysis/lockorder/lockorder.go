// Package lockorder checks the repo's lock discipline using the
// fact-propagation core: it builds the program-wide lock-acquisition graph
// (an edge A → B for every site that acquires B while holding A, including
// acquisitions one call level deep) and reports
//
//   - cyclic acquisition order — two sites that nest the same locks in
//     opposite orders can deadlock even if neither ever has (DESIGN.md §8.6);
//   - blocking operations performed while a lock is held — channel
//     send/receive, select without default, Future.Wait, Cond.Wait,
//     time.Sleep — directly or via a called module function. A Cond.Wait
//     releases the lock its Cond is bound to (c.L = &mu, or
//     sync.NewCond(&mu)), so only the other locks held count against it.
//
// Lock identities name declaration sites (pkg.Owner.field, pkg.var,
// pkg.func.var), so the ordering contract is stated per lock declaration,
// not per instance. The fence/gate/hold-queue mutexes of internal/core
// (§4.1, §9) are ordinary sync.Mutex/RWMutex fields and are covered by the
// same identity scheme. Dynamic calls are invisible to the facts; a cycle
// threaded through an interface method will not be seen.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"kstm/internal/analysis"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "cyclic lock acquisition order and blocking while a lock is held",
	Run:  run,
}

// edge is one acquisition edge: to was acquired while from was held, at pos
// (via names the callee when the acquisition is one call level deep).
type edge struct {
	to  string
	pos token.Pos
	via string
}

func run(pass *analysis.Pass) error {
	reportBlocking(pass)
	reportCycles(pass)
	return nil
}

// reportBlocking walks this package's functions and flags blocking with a
// lock held, both directly and through a summarized callee.
func reportBlocking(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			key := analysis.FuncKey(fn)
			ff := pass.Facts.Of(key)
			if ff == nil {
				continue
			}
			direct := map[token.Pos]bool{}
			for _, b := range ff.Blocks {
				direct[b.Pos] = true
				if held := pass.Facts.HeldAcross(b); len(held) > 0 {
					pass.Reportf(b.Pos, "blocking operation (%s) while holding %s", b.What, strings.Join(held, ", "))
				}
			}
			for _, c := range ff.Calls {
				if len(c.Held) == 0 || c.Callee == key || direct[c.Pos] {
					continue
				}
				cf := pass.Facts.Of(c.Callee)
				if cf == nil || !cf.BlocksDirectly() {
					continue
				}
				pass.Reportf(c.Pos, "call to %s blocks (%s) while holding %s",
					c.Callee, cf.Blocks[0].What, strings.Join(c.Held, ", "))
			}
		}
	}
}

// reportCycles builds the global acquisition graph from every summarized
// function and reports each cycle exactly once: at the minimal-position edge
// leaving the cycle's lexicographically smallest lock, and only from the
// pass whose files contain that edge (so multi-package runs never duplicate
// a finding).
func reportCycles(pass *analysis.Pass) {
	edges := map[string]map[string]edge{} // from → to → representative edge
	add := func(from string, e edge) {
		if from == e.to {
			// A self-edge is re-acquisition of the same declaration-site
			// lock (two instances, e.g. ordered shard locks) — an ordering
			// question the per-declaration identity cannot decide.
			return
		}
		m := edges[from]
		if m == nil {
			m = map[string]edge{}
			edges[from] = m
		}
		if old, ok := m[e.to]; !ok || e.pos < old.pos {
			m[e.to] = e
		}
	}
	for _, ff := range pass.Facts.Fns {
		for _, l := range ff.Locks {
			for _, held := range l.Held {
				add(held, edge{to: l.ID, pos: l.Pos})
			}
		}
		// One level deep: calling a function that acquires locks is an
		// acquisition under whatever the caller holds.
		for _, c := range ff.Calls {
			if len(c.Held) == 0 {
				continue
			}
			cf := pass.Facts.Of(c.Callee)
			if cf == nil {
				continue
			}
			for _, l := range cf.Locks {
				for _, held := range c.Held {
					add(held, edge{to: l.ID, pos: c.Pos, via: c.Callee})
				}
			}
		}
	}

	inPass := map[string]bool{}
	for _, f := range pass.Files {
		inPass[pass.Fset.Position(f.Pos()).Filename] = true
	}

	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, start := range nodes {
		cycle := findCycle(edges, start)
		if cycle == nil {
			continue
		}
		rep := edges[start][cycle[1]]
		if !inPass[pass.Fset.Position(rep.pos).Filename] {
			continue
		}
		msg := "lock acquisition cycle: " + strings.Join(cycle, " -> ")
		if rep.via != "" {
			msg += " (edge via call to " + rep.via + ")"
		}
		pass.Reportf(rep.pos, "%s", msg)
	}
}

// findCycle returns the first cycle through start visiting only nodes ≥
// start (so each cycle is found exactly once, from its smallest node), as
// the node path start, ..., start. Neighbors are explored in sorted order,
// making the choice deterministic.
func findCycle(edges map[string]map[string]edge, start string) []string {
	var path []string
	onPath := map[string]bool{}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		path = append(path, n)
		onPath[n] = true
		defer func() {
			path = path[:len(path)-1]
			delete(onPath, n)
		}()
		next := make([]string, 0, len(edges[n]))
		for to := range edges[n] {
			next = append(next, to)
		}
		sort.Strings(next)
		for _, to := range next {
			if to == start && len(path) > 1 {
				return append(append([]string{}, path...), start)
			}
			if to < start || onPath[to] {
				continue
			}
			if c := dfs(to); c != nil {
				return c
			}
		}
		return nil
	}
	return dfs(start)
}
