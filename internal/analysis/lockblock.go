package analysis

import (
	"go/ast"
	"go/types"
)

// LockBlock flags blocking operations performed while a mutex is held.
//
// Invariant: coordinator and cache mutexes guard in-memory bookkeeping, so
// a critical section must not block — no channel sends (a full channel
// stalls every other query on the shard), no time.Sleep, and no backend
// access calls (a Remote list's simulated latency, or a real RPC later,
// would serialize the whole engine behind one fetch). The page cache's
// documented single-flight fetch is the one deliberate exception and
// carries //lint:lockheld with that reason.
//
// The analysis is intra-procedural: a critical section opened by X.Lock()
// extends to the matching X.Unlock() in the same statement list, or to the
// function's end when the unlock is deferred. Calls to access-shaped
// methods (accessMethodNames) and to the access package's fetch helpers
// (fetchHelperNames) are flagged, except on internal/model values — an
// in-memory column read is a bounds-checked array access, not a
// potentially-blocking backend call.
var LockBlock = &Analyzer{
	Name: "lockblock",
	Key:  "lockheld",
	Doc: "no channel send, time.Sleep or backend access call while holding a " +
		"coordinator/cache mutex; move the blocking work outside the critical " +
		"section or annotate //lint:lockheld <reason>",
	Scope: []string{"repro/internal/access", "repro/internal/core", "repro/internal/shard"},
	Run:   runLockBlock,
}

// accessMethodNames are the method names of the backend access surface:
// ListSource, BatchList, CostedList and CostedBatchList, their error-aware
// Fallible* twins, and the Source entry points.
var accessMethodNames = map[string]bool{
	"At": true, "AtN": true, "AtCost": true, "AtCostN": true,
	"GradeOf": true, "GradeOfCost": true,
	"AtErr": true, "AtNErr": true, "AtCostErr": true, "AtCostNErr": true,
	"GradeOfErr": true, "GradeOfCostErr": true,
	"SortedNext": true, "SortedNextN": true, "Random": true,
}

// fetchHelperNames are the access package's helpers that read a wrapped
// list on the caller's behalf.
var fetchHelperNames = map[string]bool{
	"fetchInto": true, "fetchIntoErr": true, "atErr": true, "gradeOfErr": true,
}

func runLockBlock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeLockedStmts(pass, fn.Body.List, nil)
				}
			case *ast.FuncLit:
				analyzeLockedStmts(pass, fn.Body.List, nil)
			}
			return true
		})
	}
	return nil
}

// lockCall classifies expr as a sync.Mutex/RWMutex (un)lock call and
// returns the canonical string of the mutex expression.
func lockCall(pass *Pass, expr ast.Expr) (mutex string, lock, unlock bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false, false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, false
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

// analyzeLockedStmts walks one statement list tracking which mutexes are
// held. Nested blocks are analyzed with a copy of the held set, so an
// unlock inside a branch covers its own tail without leaking out.
func analyzeLockedStmts(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	if held == nil {
		held = make(map[string]bool)
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if mu, lock, unlock := lockCall(pass, s.X); lock || unlock {
				if lock {
					held[mu] = true
				} else {
					delete(held, mu)
				}
				continue
			}
			if len(held) > 0 {
				checkHeldNode(pass, s, held)
			}
		case *ast.DeferStmt:
			// A deferred unlock keeps the mutex held to function end (by
			// construction of this walk); any other defer runs after the
			// critical section and is not checked.
			continue
		default:
			if len(held) > 0 {
				checkHeldStmt(pass, stmt, held)
			} else {
				recurseUnheld(pass, stmt)
			}
		}
	}
}

// recurseUnheld descends into compound statements while no lock is held so
// critical sections opened inside branches and loops are still analyzed.
func recurseUnheld(pass *Pass, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		analyzeLockedStmts(pass, s.List, nil)
	case *ast.IfStmt:
		recurseUnheld(pass, s.Body)
		if s.Else != nil {
			recurseUnheld(pass, s.Else)
		}
	case *ast.ForStmt:
		recurseUnheld(pass, s.Body)
	case *ast.RangeStmt:
		recurseUnheld(pass, s.Body)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				analyzeLockedStmts(pass, cc.Body, nil)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				analyzeLockedStmts(pass, cc.Body, nil)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				analyzeLockedStmts(pass, cc.Body, nil)
			}
		}
	case *ast.LabeledStmt:
		recurseUnheld(pass, s.Stmt)
	}
}

// checkHeldStmt analyzes a compound statement reached with locks held: its
// nested statement lists continue the same held tracking (so an inner
// unlock is respected), and its leaf expressions are checked.
func checkHeldStmt(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	copyHeld := func() map[string]bool {
		cp := make(map[string]bool, len(held))
		for k := range held {
			cp[k] = true
		}
		return cp
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		analyzeLockedStmts(pass, s.List, copyHeld())
	case *ast.IfStmt:
		checkHeldNode(pass, s.Cond, held)
		checkHeldStmt(pass, s.Body, held)
		if s.Else != nil {
			checkHeldStmt(pass, s.Else, held)
		}
	case *ast.ForStmt:
		if s.Cond != nil {
			checkHeldNode(pass, s.Cond, held)
		}
		checkHeldStmt(pass, s.Body, held)
	case *ast.RangeStmt:
		checkHeldNode(pass, s.X, held)
		checkHeldStmt(pass, s.Body, held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		checkHeldNode(pass, s, held)
	case *ast.LabeledStmt:
		checkHeldStmt(pass, s.Stmt, held)
	default:
		checkHeldNode(pass, stmt, held)
	}
}

// checkHeldNode inspects one node (and its children, except function
// literals, which execute later) for operations forbidden under a lock.
func checkHeldNode(pass *Pass, n ast.Node, held map[string]bool) {
	heldName := func() string {
		for k := range held { // any single held mutex names the finding
			return k
		}
		return "a mutex"
	}
	ast.Inspect(n, func(child ast.Node) bool {
		switch c := child.(type) {
		case *ast.FuncLit:
			return false // runs later, outside the critical section
		case *ast.SendStmt:
			pass.Reportf(c.Pos(), "channel send while holding %s; a blocked receiver stalls the critical section (//lint:lockheld <reason>)", heldName())
		case *ast.CallExpr:
			if pass.isPkgCall(c, "time", "Sleep") {
				pass.Reportf(c.Pos(), "time.Sleep while holding %s (//lint:lockheld <reason>)", heldName())
				return true
			}
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
				if fn, isFn := pass.TypesInfo.ObjectOf(id).(*types.Func); isFn && fetchHelperNames[fn.Name()] {
					pass.Reportf(c.Pos(), "backend fetch (%s) while holding %s (//lint:lockheld <reason>)", fn.Name(), heldName())
				}
				return true
			}
			sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
			if !ok || !accessMethodNames[sel.Sel.Name] {
				return true
			}
			if isModelValue(pass, sel.X) {
				return true // in-memory column read, not a backend call
			}
			if _, isMethod := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); !isMethod {
				return true
			}
			pass.Reportf(c.Pos(),
				"backend access %s while holding %s; a slow backend serializes every query behind this lock (//lint:lockheld <reason>)",
				types.ExprString(c.Fun), heldName())
		}
		return true
	})
}

// isModelValue reports whether e's type is declared in repro/internal/model
// (after peeling pointers): reads on those are in-memory array accesses.
func isModelValue(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "repro/internal/model"
}
