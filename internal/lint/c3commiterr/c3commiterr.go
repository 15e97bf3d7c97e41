// Package c3commiterr enforces error hygiene on the checkpoint commit and
// restore paths (packages stable, ckpt and cluster).
//
// Motivation (PR 3): DiskStore commits are fsync-ordered — data, fsync,
// rename, fsync-dir — and the torn-commit tests only mean something if
// every error in that chain is observed. A silently dropped Sync or Rename
// error converts a disk failure into a checkpoint that recovery will trust
// and the application will lose data to.
//
// Two tiers of severity:
//
//   - ordering-critical operations (Sync, Commit, WriteSection,
//     WriteParts, Rename, plus the stable.Store mutators
//     Begin/Retire/Truncate): the error may not be dropped at all —
//     neither a bare call statement nor an explicit `_ =` discard passes.
//
//   - cleanup operations (Close, Abort): a bare call statement is a
//     finding, but an explicit `_ = x.Close()` or a `defer x.Close()` is
//     accepted — the idiomatic shapes for best-effort teardown on paths
//     where the primary error has already been captured.
//
// Deliberate exceptions (e.g. retiring old checkpoints best-effort after a
// successful commit) carry //c3lint:allow commiterr <reason>.
package c3commiterr

import (
	"go/ast"
	"go/types"

	"c3/internal/lint/analysis"
)

// GovernedPackages are the commit/restore-path packages.
var GovernedPackages = map[string]bool{
	"c3/internal/stable":  true,
	"c3/internal/ckpt":    true,
	"c3/internal/cluster": true,
}

// critical method/function names whose error result must always be bound.
var critical = map[string]bool{
	"Sync":         true,
	"Commit":       true,
	"WriteSection": true,
	"WriteParts":   true,
	"Rename":       true, // os.Rename: the commit point of DiskStore
	"Begin":        true,
	"Retire":       true,
	"Truncate":     true,
}

// cleanup method names where an explicit discard or defer is acceptable.
var cleanup = map[string]bool{
	"Close": true,
	"Abort": true,
}

// Analyzer is the c3commiterr pass.
var Analyzer = &analysis.Analyzer{
	Name: "c3commiterr",
	Doc: "commit/restore paths (stable, ckpt, cluster) may not drop errors from Sync, Commit, " +
		"WriteSection, WriteParts, Rename, Begin, Retire, Truncate (never) or Close, Abort (bare statement)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !GovernedPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, ok := governedCall(pass, call); ok {
						pass.Reportf(call.Pos(), "%s error silently dropped on the commit/restore path; handle it (or annotate a deliberate best-effort call)", name)
					}
				}
				return false
			case *ast.DeferStmt:
				if name, ok := governedCall(pass, n.Call); ok && !isCleanup(pass, n.Call) {
					pass.Reportf(n.Call.Pos(), "deferred %s drops its error on the commit/restore path; capture it in a named return or call it inline", name)
				}
				return false
			case *ast.GoStmt:
				if name, ok := governedCall(pass, n.Call); ok {
					pass.Reportf(n.Call.Pos(), "go %s drops its error on the commit/restore path", name)
				}
				return false
			case *ast.AssignStmt:
				// `_ = x.Commit()` — explicit, but still forbidden for
				// ordering-critical calls.
				if len(n.Rhs) == 1 && allBlank(n.Lhs) {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
						if name, ok := governedCall(pass, call); ok && !isCleanup(pass, call) {
							pass.Reportf(call.Pos(), "%s error explicitly discarded on the commit/restore path; an unobserved failure here breaks the fsync-ordered commit chain", name)
						}
					}
					return false
				}
			}
			return true
		})
	}
	return nil
}

// governedCall reports whether call is an error-returning call to one of
// the governed operations, returning a printable name.
func governedCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := callee(pass, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if !critical[name] && !cleanup[name] {
		return "", false
	}
	// os.Rename/os.Remove style package functions: only those from os are
	// commit-chain operations; method names apply to any receiver (the
	// stable.Store implementations, *os.File, io.Closer wrappers).
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return "", false
	}
	if sig.Recv() == nil {
		if fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return "", false
		}
		return "os." + name, true
	}
	return recvString(sig) + "." + name, true
}

func isCleanup(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := callee(pass, call)
	return fn != nil && cleanup[fn.Name()]
}

func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func recvString(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
