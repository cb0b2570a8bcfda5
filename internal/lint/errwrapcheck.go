package lint

import (
	"go/ast"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// ErrWrapCheck enforces the error contract on sentinel errors: a
// fmt.Errorf that stringifies an Err* sentinel (ErrBadModel,
// ErrBadCatalog, ErrBadBundle, ErrFetch*, ...) must use %w, so errors.Is
// keeps matching through every decoder and wrapper — the snapfmt decode
// paths wrap their sentinel, never replace it.
var ErrWrapCheck = &Analyzer{
	Name: "errwrapcheck",
	Doc:  "fmt.Errorf over an Err* sentinel must wrap with %w, not stringify",
	Run:  runErrWrapCheck,
}

func runErrWrapCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || f.PkgSel(call.Fun, "fmt") != "Errorf" || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			verbs := formatVerbs(format)
			for i, arg := range call.Args[1:] {
				name := sentinelName(arg)
				if name == "" || i >= len(verbs) {
					continue
				}
				if verbs[i] != 'w' {
					pass.Reportf(arg.Pos(),
						"sentinel %s formatted with %%%c: use %%w so errors.Is(err, %s) still matches through the wrap", name, verbs[i], name)
				}
			}
			return true
		})
	}
}

// sentinelName returns the name of an Err* sentinel reference (a bare
// ErrFoo identifier or a pkg.ErrFoo selector); empty otherwise.
func sentinelName(e ast.Expr) string {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return ""
	}
	rest, ok := cutErrPrefix(name)
	if !ok {
		return ""
	}
	r, _ := utf8.DecodeRuneInString(rest)
	if !unicode.IsUpper(r) {
		return ""
	}
	return name
}

func cutErrPrefix(name string) (string, bool) {
	if len(name) > 3 && name[:3] == "Err" {
		return name[3:], true
	}
	return "", false
}

// formatVerbs returns the verb letter of each argument-consuming verb in
// a Printf format string, in order. Flags, width, and precision are
// skipped; * consumes an argument and is returned as '*'; %% consumes
// nothing.
func formatVerbs(format string) []byte {
	var out []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // %% literal
			}
			if c == '*' {
				out = append(out, '*')
				i++
				continue
			}
			if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == '#' || c == ' ' {
				i++
				continue
			}
			out = append(out, c)
			break
		}
	}
	return out
}
