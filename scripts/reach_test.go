//go:build reach

// The reachability scan. It builds every binary the project ships — the
// five cmd/ mains, the five examples and the benchmark driver — with
// inlining off and the linker's dependency dump on, and fails on any
// non-test function declared under internal/ that none of them reaches
// and that the allowlist does not name, and on any allowlist entry that
// is reached or gone. It builds eleven binaries, so it is a check.sh
// leg behind its build tag, never part of `go test ./...`. Run with:
//
//	go test -tags reach -count=1 ./scripts/
package scripts

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The three kinds of allowlist entry.
const (
	oracle = "test oracle: other packages' tests call it"
	rest   = "the rest: no direction needs it; delete it, or move it into its package's tests"
)

func waiting(direction string) string { return "waiting on ROADMAP direction " + direction }

// allowlist names every function no binary reaches that stays in the
// tree, as package.Func or package.Type.Method under internal/, with
// its kind.
var allowlist = map[string]string{
	"profile.Curve.Validate":                   waiting("5"),
	"profile.LoadLookupTable":                  waiting("12"),
	"profile.LookupTable.Get":                  waiting("12"),
	"dag.Graph.CutBytes":                       waiting("8(b)"),
	"sim.FromChainPlan":                        waiting("11"),
	"core.ContinuousSolution.AvgMakespanBound": waiting("1"),

	"flowshop.BestPermutation":  oracle,
	"flowshop.Completions":      oracle,
	"flowshop.CompletionsM":     oracle,
	"core.BruteForceHetero":     oracle,
	"core.PoissonReleases":      oracle,
	"sim.FromGeneralPlan":       oracle,
	"experiments.BestRatio":     oracle,
	"experiments.AdaptCurve":    oracle,
	"netsim.StepUp":             oracle,
	"netsim.Sawtooth":           oracle,
	"netsim.Ramp":               oracle,
	"obs.ReadJSON":              oracle,
	"estimator.ReadReplayTrace": oracle,
	"tensor.NewFrom":            oracle,
	"tensor.Arena.FreeBuffers":  oracle,
	"tensor.count":              oracle, // FreeBuffers' count

	"tensor.Tensor.At":              rest,
	"tensor.Tensor.Set":             rest,
	"tensor.Tensor.Fill":            rest,
	"tensor.Tensor.index":           rest, // At's and Set's
	"tensor.QTensor.Clone":          rest,
	"dag.Graph.NodeByName":          rest,
	"dag.Graph.ValidCut":            rest,
	"dag.Graph.MobileFLOPs":         rest,
	"engine.Model.ForwardBatch":     rest,
	"engine.UnpackBatch":            rest,
	"runtime.Client.Units":          rest,
	"runtime.Runner.WithObs":        rest,
	"estimator.Estimator.Config":    rest,
	"netsim.FaultyConn.Stats":       rest,
	"obs.CounterVec.Values":         rest,
	"obs.Span.EndMs":                rest,
	"core.HeteroPlan.TotalJobs":     rest,
	"core.HeteroPlan.AvgMs":         rest,
	"regression.Exponential.String": rest,
	"core.BinarySearchCut":          rest,
}

// binaries are the packages built, each from its module's root.
var binaries = []struct{ module, pkg string }{
	{".", "./cmd/benchgate"}, {".", "./cmd/jpsbench"}, {".", "./cmd/jpscut"},
	{".", "./cmd/jpsprofile"}, {".", "./cmd/jpsserve"},
	{".", "./examples/arglasses"}, {".", "./examples/bandwidthplanner"},
	{".", "./examples/edgecluster"}, {".", "./examples/quickstart"},
	{".", "./examples/selfdriving"},
	{"benchmark", "."},
}

const modulePath = "dnnjps/internal/"

func TestEveryInternalFunctionIsReached(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, b := range binaries {
		cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", b.pkg)
		cmd.Dir = filepath.Join(root, b.module)
		dump, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", b.pkg, b.module, err, dump[max(0, len(dump)-4096):])
		}
		sc := bufio.NewScanner(bytes.NewReader(dump))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// Whole pairs: a generic instantiation's brackets hold
			// spaces, so the line is not split on blanks. Only a
			// function's own symbol counts: aux symbols such as
			// F.arginfo1 or F.stkobj are shared by content and name
			// whichever function emitted them first.
			from, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok {
				continue
			}
			for _, sym := range []string{from, to} {
				if name, ok := symbolName(sym); ok {
					reached[name] = true
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	decls, err := internalFuncs(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	lines := 0
	for name, n := range decls {
		if reached[name] {
			continue
		}
		lines += n
		if _, ok := allowlist[name]; !ok {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("internal/%s: no binary reaches it and the allowlist does not name it; wire it, or move it into its package's tests", name)
	}
	for name, kind := range allowlist {
		if _, ok := decls[name]; !ok {
			t.Errorf("allowlist names internal/%s (%s), which is no longer declared", name, kind)
		} else if reached[name] {
			t.Errorf("allowlist names internal/%s (%s), which a binary now reaches", name, kind)
		}
	}
	t.Logf("%d internal functions, %d unreached (%d lines), %d on the allowlist", len(decls), len(allowlist)+len(unreached), lines, len(allowlist))
}

// symbolName maps a linker symbol under internal/ to the scan's
// package.Func or package.Type.Method, with instantiation brackets and
// pointer receivers stripped.
func symbolName(sym string) (string, bool) {
	sym, _, _ = strings.Cut(sym, " <") // attributes such as <UsedInIface>
	rest, ok := strings.CutPrefix(sym, modulePath)
	if !ok {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range rest {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ").", ".").Replace(b.String()), true
}

// internalFuncs lists every function and method declared in the
// non-test files of the host build under dir, keyed like symbolName,
// with its length in lines. init functions are left out: the runtime
// calls every one.
func internalFuncs(dir string) (map[string]int, error) {
	decls := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.Default.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		prefix := filepath.ToSlash(rel) + "."
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := prefix + fn.Name.Name
				if fn.Recv != nil {
					key = prefix + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls[key] = fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			}
		}
		return nil
	})
	return decls, err
}

// recvName is a receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
