// Package c3lockblock flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held.
//
// Motivation (PR 4): Mesh.write once performed a full-window TCP redial
// while holding the per-peer connection lock; every sender to that peer —
// heartbeats included — queued behind a 30-second stall, turning one dead
// rank into a world-wide detector brownout. The invariant: critical
// sections compute; they do not dial, sleep, send on channels, or wait.
//
// Blocking operations recognized:
//   - net.Dial / net.DialTimeout / net.DialUDP/TCP/IP/Unix, (*net.Dialer).Dial*
//   - Read/Write on values implementing net.Conn (kernel-buffer blocking),
//     and (*net.Buffers).WriteTo, the writev form of the same write
//   - channel send statements
//   - (*sync.WaitGroup).Wait
//   - time.Sleep
//
// sync.Cond.Wait is deliberately NOT a finding: the condition-variable
// protocol requires holding L, and Wait releases it while parked.
//
// The analysis is intra-package but inter-procedural one package deep: a
// call to a same-package function that (transitively) performs a blocking
// operation is itself blocking — exactly the historical shape, where the
// dial lived two frames below the lock. Lock tracking is syntactic and
// source-ordered (an Unlock anywhere in a conditional arm is honored), so
// the pass under-approximates: it misses exotic flow but never needs
// path-sensitive reasoning, and deliberate block-under-lock sites are
// annotated with //c3lint:allow lockblock <reason>.
package c3lockblock

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"c3/internal/lint/analysis"
)

// Analyzer is the c3lockblock pass.
var Analyzer = &analysis.Analyzer{
	Name: "c3lockblock",
	Doc: "no blocking operations (net dials, conn reads/writes, channel sends, WaitGroup.Wait, " +
		"time.Sleep) while a sync.Mutex/RWMutex is held",
	Run: run,
}

// blockInfo explains why a function may block (empty reason = it doesn't).
type blockInfo struct {
	reason string
	pos    token.Pos
}

type checker struct {
	pass     *analysis.Pass
	connIfc  *types.Interface // net.Conn, nil if net not imported
	decls    map[types.Object]*ast.FuncDecl
	mayBlock map[types.Object]blockInfo
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		connIfc:  lookupNetConn(pass.Pkg),
		decls:    make(map[types.Object]*ast.FuncDecl),
		mayBlock: make(map[types.Object]blockInfo),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					c.decls[obj] = fd
				}
			}
		}
	}
	c.propagate()
	for _, fd := range c.decls {
		c.checkFunc(fd)
	}
	return nil
}

// lookupNetConn fetches the net.Conn interface if this package's import
// graph contains package net; without it no conn calls can occur.
func lookupNetConn(pkg *types.Package) *types.Interface {
	for _, imp := range pkg.Imports() {
		if imp.Path() == "net" {
			if obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName); ok {
				if ifc, ok := obj.Type().Underlying().(*types.Interface); ok {
					return ifc
				}
			}
		}
	}
	return nil
}

// directBlock classifies one AST node as a directly blocking operation.
func (c *checker) directBlock(n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.CallExpr:
		if fn := calleeFunc(c.pass, n); fn != nil {
			full := fn.FullName()
			switch {
			case fn.Pkg() != nil && fn.Pkg().Path() == "net" &&
				strings.HasPrefix(fn.Name(), "Dial") && fn.Type().(*types.Signature).Recv() == nil:
				return "net." + fn.Name(), true
			case full == "(*net.Dialer).Dial" || full == "(*net.Dialer).DialContext":
				return full, true
			case full == "(*net.Buffers).WriteTo":
				return "net.Buffers.WriteTo", true // a writev on the conn
			case full == "time.Sleep":
				return "time.Sleep", true
			case full == "(*sync.WaitGroup).Wait":
				return "sync.WaitGroup.Wait", true
			}
			// Read/Write on a net.Conn: blocking against kernel buffers
			// and the peer's read pace.
			if c.connIfc != nil && (fn.Name() == "Read" || fn.Name() == "Write") {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok &&
						types.Implements(tv.Type, c.connIfc) {
						return fmt.Sprintf("%s on net.Conn %s", fn.Name(), render(sel.X)), true
					}
				}
			}
		}
	}
	return "", false
}

// propagate computes the package-local transitive may-block relation.
func (c *checker) propagate() {
	// Seed: functions containing a direct blocking operation.
	for obj, fd := range c.decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := c.mayBlock[obj]; ok {
				return false
			}
			if _, ok := n.(*ast.GoStmt); ok {
				return false // a goroutine launch does not block the caller
			}
			if reason, ok := c.directBlock(n); ok {
				c.mayBlock[obj] = blockInfo{reason: reason, pos: n.Pos()}
				return false
			}
			return true
		})
	}
	// Fixpoint: calling a may-block function blocks.
	for changed := true; changed; {
		changed = false
		for obj, fd := range c.decls {
			if _, ok := c.mayBlock[obj]; ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := c.mayBlock[obj]; ok {
					return false
				}
				if _, ok := n.(*ast.GoStmt); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(c.pass, call); fn != nil {
					if info, ok := c.mayBlock[fn]; ok {
						c.mayBlock[obj] = blockInfo{
							reason: fmt.Sprintf("call to %s (which may block: %s)", fn.Name(), info.reason),
							pos:    n.Pos(),
						}
						changed = true
						return false
					}
				}
				return true
			})
		}
	}
}

// calleeFunc resolves a call's static callee, or nil for dynamic calls,
// conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// lockState tracks which mutexes are held at the current point of the
// source-ordered walk. Keys are the rendered receiver expression ("p.mu").
type lockState struct {
	held  map[string]int
	sites map[string]token.Pos
}

func (s *lockState) lock(key string, pos token.Pos) {
	if s.held == nil {
		s.held = make(map[string]int)
		s.sites = make(map[string]token.Pos)
	}
	s.held[key]++
	s.sites[key] = pos
}

func (s *lockState) unlock(key string) {
	if s.held[key] > 0 {
		s.held[key]--
	}
}

func (s *lockState) any() (string, token.Pos, bool) {
	for k, n := range s.held {
		if n > 0 {
			return k, s.sites[k], true
		}
	}
	return "", token.NoPos, false
}

// checkFunc walks one function, maintaining the held-lock set and flagging
// blocking operations inside critical sections.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	state := &lockState{}
	c.walkStmts(fd.Body.List, state)
}

// mutexMethod classifies a call as a Lock/Unlock-family call on a
// sync.Mutex or sync.RWMutex, returning the method name and the rendered
// receiver ("c.mu").
func (c *checker) mutexMethod(call *ast.CallExpr) (method, key string, ok bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return "", "", false
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.Mutex).TryLock", "(*sync.Mutex).Unlock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock", "(*sync.RWMutex).TryLock",
		"(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
	default:
		return "", "", false
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	return fn.Name(), render(sel.X), true
}

// walkStmts processes statements in source order. Unlock calls anywhere
// (including inside conditional arms) release their mutex for subsequent
// source lines — an under-approximation that avoids path explosion.
func (c *checker) walkStmts(stmts []ast.Stmt, state *lockState) {
	for _, stmt := range stmts {
		c.walkStmt(stmt, state)
	}
}

func (c *checker) walkStmt(stmt ast.Stmt, state *lockState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if method, key, ok := c.mutexMethod(call); ok {
				switch method {
				case "Lock", "RLock", "TryLock":
					state.lock(key, call.Pos())
				case "Unlock", "RUnlock":
					state.unlock(key)
				}
				return
			}
		}
		c.inspect(s, state)
	case *ast.DeferStmt:
		if method, key, ok := c.mutexMethod(s.Call); ok {
			switch method {
			case "Unlock", "RUnlock":
				// Held to function end: leave the lock in place. Record the
				// defer so the message can say so? The lock site already
				// points at the Lock call.
				_ = key
			case "Lock", "RLock", "TryLock":
				state.lock(key, s.Call.Pos()) // pathological, but track it
			}
			return
		}
		// A deferred call runs at return, outside this walk's notion of
		// the critical section only if the lock is released first — not
		// decidable syntactically; skip deferred bodies.
	case *ast.BlockStmt:
		c.walkStmts(s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, state)
		}
		c.inspectExpr(s.Cond, state)
		c.walkStmt(s.Body, state)
		if s.Else != nil {
			c.walkStmt(s.Else, state)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, state)
		}
		c.inspectExpr(s.Cond, state)
		c.walkStmt(s.Body, state)
		if s.Post != nil {
			c.walkStmt(s.Post, state)
		}
	case *ast.RangeStmt:
		c.inspectExpr(s.X, state)
		c.walkStmt(s.Body, state)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, state)
		}
		c.walkStmt(s.Body, state)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, state)
		}
		c.walkStmt(s.Body, state)
	case *ast.CaseClause:
		c.walkStmts(s.Body, state)
	case *ast.SelectStmt:
		// A select with a default case polls rather than blocks; one
		// without is a blocking wait. Either way its comm clauses are
		// channel operations: flag the blocking form under a lock.
		if key, site, held := state.any(); held && !selectHasDefault(s) {
			c.pass.Reportf(s.Pos(), "blocking select while %s is held (locked at %s)", key, c.pos(site))
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				c.walkStmts(cc.Body, state)
			}
		}
	case *ast.CommClause:
		c.walkStmts(s.Body, state)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, state)
	case *ast.GoStmt:
		// The goroutine body runs concurrently, not under this lock.
	case nil:
	default:
		c.inspect(stmt, state)
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// inspect flags blocking operations within one non-control statement.
func (c *checker) inspect(n ast.Node, state *lockState) {
	key, site, held := state.any()
	if !held {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // runs later, possibly without the lock
		}
		if reason, ok := c.directBlock(n); ok {
			c.pass.Reportf(n.Pos(), "%s while %s is held (locked at %s)", reason, key, c.pos(site))
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(c.pass, call); fn != nil {
				if info, ok := c.mayBlock[fn]; ok && c.decls[fn] != nil {
					c.pass.Reportf(call.Pos(), "call to %s while %s is held (locked at %s); %s may block: %s",
						fn.Name(), key, c.pos(site), fn.Name(), info.reason)
					return false
				}
			}
		}
		return true
	})
}

func (c *checker) inspectExpr(e ast.Expr, state *lockState) {
	if e != nil {
		c.inspect(e, state)
	}
}

func (c *checker) pos(p token.Pos) string {
	pos := c.pass.Fset.Position(p)
	return fmt.Sprintf("line %d", pos.Line)
}

// render prints an expression compactly for lock keys and messages.
func render(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
