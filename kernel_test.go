package datacell_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelImportBoundary guards the paper's "unmodified kernel": the
// packages that model the column store's kernel — algebra, exec, plan,
// expr, vector, sql and catalog — import, directly or through any other
// package of the module, nothing from the stream layers above them (core,
// engine, basket, storage, serve) or from the root package.
func TestKernelImportBoundary(t *testing.T) {
	const mod = "datacell"
	kernel := []string{"algebra", "exec", "plan", "expr", "vector", "sql", "catalog"}
	forbidden := map[string]bool{mod: true}
	for _, p := range []string{"core", "engine", "basket", "storage", "serve"} {
		forbidden[mod+"/internal/"+p] = true
	}
	// imports lists the module packages pkg imports (test files excluded).
	imports := func(pkg string) []string {
		dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pkg, mod), "/"))
		if dir == "" {
			dir = "."
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		var own []string
		for _, imp := range bp.Imports {
			if imp == mod || strings.HasPrefix(imp, mod+"/") {
				own = append(own, imp)
			}
		}
		return own
	}
	for _, k := range kernel {
		root := mod + "/internal/" + k
		via := map[string]string{root: ""} // package -> the package that imports it
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			for _, imp := range imports(pkg) {
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = pkg
				if forbidden[imp] {
					path := imp
					for p := pkg; p != ""; p = via[p] {
						path = p + " -> " + path
					}
					t.Errorf("kernel package %s reaches %s", k, path)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
