package analyzers

import (
	"go/ast"
	"go/token"
)

// This file is the dataflow layer shared by the path-sensitive analyzers
// (poolref, ringlink): a small abstract interpreter over one function body.
// The abstract state is a bitset of client-defined facts ("owned",
// "released", "linked", ...); branches fork the set, merges union it, and
// loops run to a two-iteration fixpoint, so the interpretation is a sound
// over-approximation of every acyclic path plus one loop back edge.
// Functions using goto or labeled branches are skipped by the callers
// (none exist in this module); hasJumps detects them.
//
// The engine owns control flow only. Everything domain-specific lives in a
// flowClient:
//
//   - stmt gets first crack at every statement; returning done=true means
//     the client fully handled it (e.g. poolref's tracked acquisition or a
//     deferred Release).
//   - scan folds the straight-line effects of a node into the state
//     (method calls on the tracked value, escapes, ...).
//   - exit observes each function-exit state set (an explicit return or
//     falling off the end), where leak-style obligations are checked.
type flowClient interface {
	stmt(s ast.Stmt, in int) (out int, done bool)
	scan(n ast.Node, in int) int
	exit(states int, pos token.Pos)
}

// flowExec interprets one function body for one flowClient. A state of 0
// means "path terminated" (return, panic); the engine stops propagating it.
type flowExec struct {
	client flowClient
}

// run interprets body from state in and checks the fall-off-the-end exit.
func (w *flowExec) run(body *ast.BlockStmt, in int) {
	out := w.execBlock(body, in)
	if out != 0 {
		w.client.exit(out, body.End())
	}
}

func (w *flowExec) execBlock(b *ast.BlockStmt, in int) int {
	if b == nil {
		return in
	}
	return w.execStmts(b.List, in)
}

func (w *flowExec) execStmts(list []ast.Stmt, in int) int {
	cur := in
	for _, s := range list {
		cur = w.execStmt(s, cur)
		if cur == 0 {
			return 0 // path terminated
		}
	}
	return cur
}

func (w *flowExec) execStmt(s ast.Stmt, in int) int {
	if out, done := w.client.stmt(s, in); done {
		return out
	}
	switch st := s.(type) {
	case *ast.ReturnStmt:
		in = w.client.scan(st, in)
		w.client.exit(in, st.Pos())
		return 0
	case *ast.ExprStmt:
		if isPanicCall(st.X) {
			w.client.scan(st, in)
			return 0
		}
		return w.client.scan(st, in)
	case *ast.BlockStmt:
		return w.execBlock(st, in)
	case *ast.IfStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		in = w.scanExpr(st.Cond, in)
		thenOut := w.execBlock(st.Body, in)
		elseOut := in
		if st.Else != nil {
			elseOut = w.execStmt(st.Else, in)
		}
		return thenOut | elseOut
	case *ast.ForStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		if st.Cond != nil {
			in = w.scanExpr(st.Cond, in)
		}
		return w.execLoop(in, func(s int) int {
			s = w.execBlock(st.Body, s)
			if s != 0 && st.Post != nil {
				s = w.execStmt(st.Post, s)
			}
			return s
		}, st.Cond == nil)
	case *ast.RangeStmt:
		in = w.scanExpr(st.X, in)
		bind := rangeBind(st)
		return w.execLoop(in, func(s int) int {
			if bind != nil {
				// Every iteration rebinds the key/value variables: state
				// carried around the back edge belongs to the previous
				// element, not this one.
				s = w.execStmt(bind, s)
			}
			return w.execBlock(st.Body, s)
		}, false)
	case *ast.SwitchStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		if st.Tag != nil {
			in = w.scanExpr(st.Tag, in)
		}
		return w.execCases(st.Body, in)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		in = w.client.scan(st.Assign, in)
		return w.execCases(st.Body, in)
	case *ast.SelectStmt:
		return w.execCases(st.Body, in)
	case *ast.GoStmt:
		return w.client.scan(st, in)
	default:
		return w.client.scan(s, in)
	}
}

// execLoop runs a loop body to a two-iteration fixpoint over the state
// set. infinite marks `for {}` loops, whose only fallthrough is a break —
// approximated here by the union of entry and body states, which is an
// over-approximation of every break point.
func (w *flowExec) execLoop(in int, body func(int) int, infinite bool) int {
	s1 := body(in)
	s2 := body(in | s1)
	out := in | s1 | s2
	if infinite && s1 == 0 && s2 == 0 {
		return 0
	}
	return out
}

// execCases unions the outcomes of each case clause of a switch/select
// body; a missing default keeps the entry state as a possible outcome.
func (w *flowExec) execCases(body *ast.BlockStmt, in int) int {
	out := 0
	hasDefault := false
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				in = w.scanExpr(e, in)
			}
			out |= w.execStmts(cc.Body, in)
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				in = w.execStmt(cc.Comm, in)
			}
			out |= w.execStmts(cc.Body, in)
		}
	}
	if !hasDefault {
		out |= in
	}
	return out
}

func (w *flowExec) scanExpr(e ast.Expr, in int) int {
	if e == nil {
		return in
	}
	return w.client.scan(e, in)
}

// rangeBind renders a range clause's per-iteration binding of its
// key/value variables as an assignment with no right-hand side, so clients
// see the rebinding the way they see `v = ...`; nil when nothing is bound.
func rangeBind(st *ast.RangeStmt) *ast.AssignStmt {
	var lhs []ast.Expr
	for _, e := range []ast.Expr{st.Key, st.Value} {
		if e != nil {
			lhs = append(lhs, e)
		}
	}
	if lhs == nil {
		return nil
	}
	return &ast.AssignStmt{Lhs: lhs, TokPos: st.TokPos, Tok: st.Tok}
}

// hasJumps reports whether a body uses goto or labeled branches, which the
// structural interpreter does not model; callers skip such functions.
func hasJumps(body *ast.BlockStmt) bool {
	jumps := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.LabeledStmt:
			jumps = true
		case *ast.BranchStmt:
			if s.Label != nil || s.Tok == token.GOTO {
				jumps = true
			}
		}
		return !jumps
	})
	return jumps
}
