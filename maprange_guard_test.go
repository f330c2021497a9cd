package profess

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// resultPackages are the directories whose code decides simulated
// results: every package a Result, report or cached envelope passes
// through, the root package included.
var resultPackages = []string{
	".",
	"internal/cache", "internal/core", "internal/cpu", "internal/energy",
	"internal/event", "internal/fault", "internal/hybrid", "internal/mem",
	"internal/migrate", "internal/sample", "internal/sim", "internal/stats",
	"internal/trace", "internal/workload",
}

// mapRangeAllowed lists every range over a map in resultPackages, keyed
// by file, enclosing function and ranged expression, with how many such
// loops the function holds and why their iteration order cannot reach a
// result.
var mapRangeAllowed = map[string]struct {
	loops int
	why   string
}{
	"csv.go Bars series":                                            {1, "takes the largest value, which no order changes"},
	"exp_multi.go sortedKeys m":                                     {1, "collects the keys, then sorts them"},
	"sweep.go PlanSweep pc.perExp":                                  {1, "copies each count into another map"},
	"sweep.go PlanSweep pc.cells":                                   {1, "collects the cells, then sorts them by cost and unique key"},
	"internal/hybrid/controller.go (*Controller).Reset c.pendingST": {1, "returns each waiter slice to the pool emptied and deletes its key: the order decides which backing array a later miss reuses, never what it holds"},
	"internal/migrate/mempod.go (*MemPod).OnAccess m.mea":           {1, "the MEA decrement: lowers every counter by one and deletes those that reach zero, each entry on its own"},
	"internal/migrate/mempod.go (*MemPod).endInterval m.mea":        {1, "the sorted drain: collects the entries, then sorts them by count and unique key"},
	"internal/migrate/oracle.go NewOracle counts":                   {1, "keeps each group's highest count, ties to the lowest slot: a total order, so every visit order picks the same slot"},
	"internal/migrate/oracle.go NewOracle agg":                      {1, "writes each group's own entry into another map"},
	"internal/migrate/silcfm.go (*SILCFM).OnAccess s.m1Counts":      {1, "ages every counter by halving it and deletes those that reach zero, each entry on its own"},
}

// TestNoMapRangeInResultPackages fails on a range over a map in
// resultPackages that mapRangeAllowed does not list. Go randomises map
// iteration order from run to run, so such a loop that feeds a result
// breaks the rerun byte-identity the goldens and the run cache rely on.
// A listed function with more or fewer such loops than listed fails
// too, so the list stays exact.
func TestNoMapRangeInResultPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	found := map[string]int{}
	for _, dir := range resultPackages {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		path := "profess"
		if dir != "." {
			path += "/" + dir
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
						return true
					}
					pos := fset.Position(rs.Pos())
					key := fmt.Sprintf("%s %s %s", filepath.ToSlash(pos.Filename), funcName(fn), types.ExprString(rs.X))
					found[key]++
					if _, ok := mapRangeAllowed[key]; !ok {
						t.Errorf("%s: range over map %s in %s; iterate in a fixed order, or add %q to mapRangeAllowed with the reason its order cannot reach a result",
							pos, types.ExprString(rs.X), funcName(fn), key)
					}
					return true
				})
			}
		}
	}
	var miscounted []string
	for key, site := range mapRangeAllowed {
		if found[key] != site.loops {
			miscounted = append(miscounted, fmt.Sprintf("mapRangeAllowed lists %d map range(s) for %q; found %d", site.loops, key, found[key]))
		}
	}
	sort.Strings(miscounted)
	for _, msg := range miscounted {
		t.Error(msg)
	}
}

// funcName names a function declaration as (*T).M, (T).M or F.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return fmt.Sprintf("(%s).%s", types.ExprString(fn.Recv.List[0].Type), fn.Name.Name)
}
