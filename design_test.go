package feddrl

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designSectionRe reads a DESIGN.md heading's section number.
	designSectionRe = regexp.MustCompile(`^## §(\d+) `)
	// designNumberRe and designQuoteRe find citations by section number
	// and by quoted heading text.
	designNumberRe = regexp.MustCompile(`DESIGN\.md §(\d+)`)
	designQuoteRe  = regexp.MustCompile(`DESIGN\.md "([^"]+)"`)
	// commentJoinRe joins a citation that wraps onto the next line of a
	// Markdown paragraph or a // comment.
	commentJoinRe = regexp.MustCompile(`\s*\n\s*(?://\s?)?`)
)

// TestDesignCitationsResolve checks that every citation of a DESIGN.md
// section, by number or by quoted heading text, in the repository's .go
// and .md files names a heading that DESIGN.md has. ROADMAP.md and
// CHANGES.md are skipped: they are plans and history, and may name
// sections that are not written yet or have since moved.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	var headings []string
	for _, line := range strings.Split(string(design), "\n") {
		if m := designSectionRe.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
			headings = append(headings, strings.ToLower(line))
		}
	}
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch path {
		case "ROADMAP.md", "CHANGES.md":
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := commentJoinRe.ReplaceAllString(string(data), " ")
		for _, m := range designNumberRe.FindAllStringSubmatch(text, -1) {
			cited++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no heading", path, m[1])
			}
		}
		for _, m := range designQuoteRe.FindAllStringSubmatch(text, -1) {
			cited++
			found := false
			for _, h := range headings {
				found = found || strings.Contains(h, strings.ToLower(m[1]))
			}
			if !found {
				t.Errorf("%s cites DESIGN.md %q, which matches no heading", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("found no DESIGN.md citations to check")
	}
	t.Logf("%d DESIGN.md citations resolve", cited)
}

// TestVerifyRunPatternsResolve checks that every |-separated name in a
// -run pattern of scripts/verify.sh or the Makefile is a Test or Fuzz
// func in a _test.go file of the package that line tests. `go test
// -run` passes silently when a name matches nothing, so without this a
// deleted test would stay named in a gate that no longer runs it.
// Names must be plain identifiers; only the Makefile's '^$$' (run no
// test, fuzz instead) is exempt.
func TestVerifyRunPatternsResolve(t *testing.T) {
	runRe := regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	names := 0
	for _, file := range []string{"scripts/verify.sh", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := runRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := m[1] + m[2]
			if pattern == "^$$" {
				continue
			}
			defined := map[string]bool{}
			var pkgs []string
			for _, f := range strings.Fields(line) {
				if f != "." && !strings.HasPrefix(f, "./") {
					continue
				}
				pkgs = append(pkgs, f)
				dir := strings.TrimSuffix(f, "/...")
				err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
					if err != nil {
						return err
					}
					if d.IsDir() {
						if path != dir && (dir == f || strings.HasPrefix(d.Name(), ".")) {
							return filepath.SkipDir
						}
						return nil
					}
					if !strings.HasSuffix(path, "_test.go") {
						return nil
					}
					src, err := os.ReadFile(path)
					for _, fm := range funcRe.FindAllStringSubmatch(string(src), -1) {
						defined[fm[1]] = true
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(pkgs) == 0 {
				t.Errorf("%s:%d: -run %q names no package", file, i+1, pattern)
			}
			for _, name := range strings.Split(pattern, "|") {
				names++
				if !defined[name] {
					t.Errorf("%s:%d: -run names %s, which no _test.go file in %s defines", file, i+1, name, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if names == 0 {
		t.Fatal("found no -run patterns in scripts/verify.sh or the Makefile")
	}
	t.Logf("%d -run names checked", names)
}
