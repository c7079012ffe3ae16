package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"kite/internal/lint/analysis"
)

// Xskeys kills silent typo drift in the xenstore negotiation protocol: the
// path, key, and device-type arguments of every xenstore/xenbus API call
// must be built from the constant registry in internal/xenstore/keys.go,
// never from raw string literals. A mistyped literal ("event-chanel")
// compiles fine and silently breaks the handshake at runtime — exactly the
// failure class the multi-queue negotiation of PR 4 is exposed to; a
// mistyped constant name does not compile.
//
// Literals consisting solely of '/' separators are allowed, so
// `frontPath + "/" + xenstore.KeyState` reads naturally.
var Xskeys = &analysis.Analyzer{
	Name: "xskeys",
	Doc:  "xenstore path/key arguments must come from the internal/xenstore key registry",
	Run:  runXskeys,
}

// xsCheckedParams maps a callee (types.Func FullName) to the indices of
// its path/key/device-type parameters.
var xsCheckedParams = map[string][]int{
	"(*kite/internal/xenstore.Store).Write":    {0},
	"(*kite/internal/xenstore.Store).Writef":   {0},
	"(*kite/internal/xenstore.Store).Read":     {0},
	"(*kite/internal/xenstore.Store).ReadInt":  {0},
	"(*kite/internal/xenstore.Store).Mkdir":    {0},
	"(*kite/internal/xenstore.Store).Remove":   {0},
	"(*kite/internal/xenstore.Store).Exists":   {0},
	"(*kite/internal/xenstore.Store).List":     {0},
	"(*kite/internal/xenstore.Store).Watch":    {0},
	"(*kite/internal/xenstore.Store).SetPerms": {0},
	"(*kite/internal/xenstore.Store).ReadAs":   {1},
	"(*kite/internal/xenstore.Store).WriteAs":  {1},

	"(*kite/internal/xenbus.Bus).State":          {0},
	"(*kite/internal/xenbus.Bus).SwitchState":    {0},
	"(*kite/internal/xenbus.Bus).OnStateChange":  {0},
	"(*kite/internal/xenbus.Bus).OtherEnd":       {0},
	"(*kite/internal/xenbus.Bus).WriteNumQueues": {0},
	"(*kite/internal/xenbus.Bus).ReadNumQueues":  {0, 1},
	"(*kite/internal/xenbus.Bus).WriteFeature":   {0, 1},
	"(*kite/internal/xenbus.Bus).ReadFeature":    {0, 1},

	"kite/internal/xenbus.FrontendPath": {1},
	"kite/internal/xenbus.BackendPath":  {1},
	"kite/internal/xenbus.BackendRoot":  {1},
}

func runXskeys(pass *analysis.Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil {
				return true
			}
			params, ok := xsCheckedParams[fn.FullName()]
			if !ok {
				return true
			}
			for _, i := range params {
				if i < len(call.Args) {
					flagRawKeyLiterals(pass, call.Args[i], fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// staticCallee resolves a call to its static *types.Func target (method or
// package function), or nil for builtins, conversions, and dynamic calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			fn = sel.Obj().(*types.Func)
		} else {
			fn, _ = info.Uses[f.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// flagRawKeyLiterals walks one checked argument expression and reports
// every string literal that is not purely a '/' separator.
func flagRawKeyLiterals(pass *analysis.Pass, arg ast.Expr, callee string) {
	ast.Inspect(arg, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		v, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if strings.Trim(v, "/") == "" {
			return true // bare separator
		}
		pass.Reportf(lit.Pos(),
			"xskeys: raw xenstore key literal %q passed to %s; use a constant from internal/xenstore/keys.go", v, callee)
		return true
	})
}
