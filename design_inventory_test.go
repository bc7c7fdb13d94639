package sleepnet

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventory holds DESIGN.md §3 to the tree: every directory under
// bench, cmd/, internal/ and examples/ that holds a non-test Go file
// (testdata aside) has a row in the table, and every row names a directory
// that exists. Three re-anchors in a row found that table stale.
func TestDesignInventory(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md section 3 has no table rows")
	}

	dirs := make(map[string]bool)
	for _, root := range []string{"bench", "cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var problems []string
	for dir := range dirs {
		if !rows[dir] {
			problems = append(problems, dir+": holds Go code but has no row in DESIGN.md section 3")
		}
	}
	for row := range rows {
		if !dirs[row] {
			problems = append(problems, row+": has a row in DESIGN.md section 3 but is not a directory holding Go code")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
