package jrsnd_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsExist keeps the docs from pointing at code that is gone:
// every `go run ./<dir>` and `go test -run Example_<name>` in README.md,
// and every internal/ or cmd/ entry of DESIGN.md §5, must name a
// directory or example that exists.
func TestDocPathsExist(t *testing.T) {
	readme := readDoc(t, "README.md")
	runs := regexp.MustCompile(`go run \./([^\s]+)`).FindAllStringSubmatch(readme, -1)
	if len(runs) == 0 {
		t.Fatal("README.md names no `go run ./<dir>` command")
	}
	for _, m := range runs {
		requireDir(t, "README.md", m[1])
	}
	examples := readDoc(t, "example_test.go")
	for _, m := range regexp.MustCompile(`-run (Example_\w+)`).FindAllStringSubmatch(readme, -1) {
		if !strings.Contains(examples, "func "+m[1]+"()") {
			t.Errorf("README.md runs %s, which example_test.go does not define", m[1])
		}
	}

	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "## 5.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §5")
	}
	section := design[start+len("## 5."):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	entries := regexp.MustCompile(`(?m)^((?:internal|cmd)/[^/\s]+)/`).FindAllStringSubmatch(section, -1)
	if len(entries) == 0 {
		t.Fatal("DESIGN.md §5 lists no internal/ or cmd/ package")
	}
	for _, m := range entries {
		requireDir(t, "DESIGN.md §5", m[1])
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func requireDir(t *testing.T, doc, path string) {
	t.Helper()
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("%s names %s, which is not a directory", doc, path)
	}
}
