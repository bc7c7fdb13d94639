package sleepnet

import (
	"fmt"
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

// TestDesignStaysCurrent holds DESIGN.md to describing the code as it
// stands: it names no pull request ("PR 12" and the like; that history is
// CHANGES.md's and git's), and every "DESIGN §N", "DESIGN.md §N" or "DESIGN
// section N" in the module's Go files, the Makefile, the CI workflows,
// README.md, EXPERIMENTS.md and the verify skill names an existing "## N."
// heading, so renumbering a section cannot strand a citation. And every
// command path (cmd/x, internal/x, examples/x, with or without a leading
// "./") and every backquoted make target that DESIGN.md, README.md, the
// verify skill, the Makefile and the CI workflows name must exist, so
// deleting a binary or a target cannot leave the docs that run it behind.
func TestDesignStaysCurrent(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for _, m := range regexp.MustCompile(`\bPRs?\s+#?\d+`).FindAllIndex(design, -1) {
		line := 1 + strings.Count(string(design[:m[0]]), "\n")
		problems = append(problems, fmt.Sprintf("DESIGN.md:%d: names %q; PR history belongs in CHANGES.md", line, design[m[0]:m[1]]))
	}

	sections := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) < 10 {
		t.Fatalf("DESIGN.md has only %d numbered sections: the parse is broken", len(sections))
	}

	files := []string{"Makefile", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, workflows...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)?\s+(?:§\s*|section\s+)(\d+)`)
	cites := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatchIndex(data, -1) {
			cites++
			if n := string(data[m[2]:m[3]]); !sections[n] {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				problems = append(problems, fmt.Sprintf("%s:%d: cites %q, but DESIGN.md has no section %s", file, line, data[m[0]:m[1]], n))
			}
		}
	}
	if cites < 10 {
		t.Fatalf("found only %d DESIGN citations: the walk is broken", cites)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	pathRef := regexp.MustCompile(`(?m)(?:^|[^\w/.-])(?:\./)?((?:cmd|internal|examples)/[\w-]+)`)
	targetRef := regexp.MustCompile("`make ([\\w-]+)")
	refs := 0
	for _, file := range append([]string{"DESIGN.md", "README.md", "Makefile", ".claude/skills/verify/SKILL.md"}, workflows...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		line := func(at int) int { return 1 + strings.Count(string(data[:at]), "\n") }
		for _, m := range pathRef.FindAllSubmatchIndex(data, -1) {
			refs++
			dir := string(data[m[2]:m[3]])
			if goFiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(goFiles) == 0 {
				problems = append(problems, fmt.Sprintf("%s:%d: names %s, which is not a directory holding Go code", file, line(m[2]), dir))
			}
		}
		for _, m := range targetRef.FindAllSubmatchIndex(data, -1) {
			refs++
			if target := string(data[m[2]:m[3]]); !targets[target] {
				problems = append(problems, fmt.Sprintf("%s:%d: names `make %s`, which the Makefile does not define", file, line(m[0]), target))
			}
		}
	}
	if refs < 20 {
		t.Fatalf("found only %d command paths and make targets in the docs: the scan is broken", refs)
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
