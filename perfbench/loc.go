package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// countLines reports the non-test Go lines of each module as
// <module>.loc, plus total.loc: internal/<pkg> (subpackages included)
// is module <pkg>, cmd/ and examples/ are one module each, and Go files
// at the root are module "rnuma". The benchmark's own directory is not
// counted.
func countLines(root string) (map[string]float64, error) {
	out := make(map[string]float64, len(modules)+1)
	for _, m := range modules {
		out[m+".loc"] = 0
	}
	var total float64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := float64(bytes.Count(data, []byte("\n")))
		total += n
		if m := moduleOf(filepath.ToSlash(rel)); m != "" {
			if _, ok := out[m+".loc"]; ok {
				out[m+".loc"] += n
			}
		}
		return nil
	})
	out["total.loc"] = total
	return out, err
}

// moduleOf maps a repository-relative Go file to its module name.
func moduleOf(rel string) string {
	parts := strings.Split(rel, "/")
	switch {
	case len(parts) == 1:
		return "rnuma"
	case parts[0] == "internal" && len(parts) > 2:
		return parts[1]
	case parts[0] == "cmd" || parts[0] == "examples":
		return parts[0]
	}
	return ""
}
