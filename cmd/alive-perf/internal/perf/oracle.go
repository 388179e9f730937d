package perf

import (
	_ "embed"
	"fmt"
	"slices"
	"strings"
)

//go:embed testdata/verdicts.txt
var verdictsText string

// verdicts is the hand-written verdict expectation of testdata/verdicts.txt:
// entry name to the condition under which that entry is invalid.
var verdicts = mustParseVerdicts(verdictsText)

func mustParseVerdicts(text string) map[string]string {
	m, err := parseVerdicts(text)
	if err != nil {
		panic(err)
	}
	return m
}

func parseVerdicts(text string) (map[string]string, error) {
	m := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 || (f[1] != "always" && f[1] != "i1") {
			return nil, fmt.Errorf("verdicts.txt:%d: want `name always|i1`, got %q", i+1, line)
		}
		m[f[0]] = f[1]
	}
	return m, nil
}

// wantInvalid reports whether the named corpus entry must verify invalid
// at the given width set.
func wantInvalid(name string, widths []int) bool {
	switch verdicts[name] {
	case "always":
		return true
	case "i1":
		return slices.Contains(widths, 1)
	}
	return false
}
