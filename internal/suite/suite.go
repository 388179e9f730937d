// Package suite holds the corpus of LLVM InstCombine transformations
// hand-translated into Alive syntax. The corpus is the six .opt files
// embedded in this package, one per source file of Table 3 of the paper
// (AddSub, AndOrXor, LoadStoreAlloca, MulDivRem, Select, Shifts). It
// includes the eight wrong transformations of Figure 8, each marked by a
// "; INVALID (Figure 8)" line before its Name: line. The package also
// holds their fixed variants and the three-revision patch sequence of
// Section 6.2, which are not part of the corpus.
//
// Every entry is a real InstCombine pattern; the corpus is smaller than
// the paper's 334 translations but preserves the per-file structure and
// the buggy/correct split (2 AddSub bugs, 6 MulDivRem bugs).
package suite

import (
	"embed"
	"fmt"
	"slices"
	"strings"
	"sync"

	"alive/internal/ir"
	"alive/internal/parser"
)

//go:embed *.opt
var optFiles embed.FS

// invalidMark is the comment line that precedes a Figure 8 bug.
const invalidMark = "; INVALID (Figure 8)"

// Entry is one corpus transformation.
type Entry struct {
	Name string
	// File is the InstCombine source file the pattern comes from
	// (Table 3 grouping).
	File string
	// Text is the transformation in Alive syntax. A corpus entry's Text
	// is printed without its Name: line; Parse restores the name.
	Text string
	// WantInvalid marks the Figure 8 bugs.
	WantInvalid bool
}

// Files lists the InstCombine file names of Table 3 that the corpus
// covers, in the paper's order.
var Files = []string{"AddSub", "AndOrXor", "LoadStoreAlloca", "MulDivRem", "Select", "Shifts"}

// PaperTable3 records the paper's Table 3 numbers for the translated
// files: total optimizations in the file, number translated, number
// found buggy.
var PaperTable3 = map[string][3]int{
	"AddSub":          {67, 49, 2},
	"AndOrXor":        {165, 131, 0},
	"LoadStoreAlloca": {28, 17, 0},
	"MulDivRem":       {65, 44, 6},
	"Select":          {74, 52, 0},
	"Shifts":          {43, 41, 0},
}

// corpus parses the embedded files once, in Files order.
var corpus = sync.OnceValue(func() []Entry {
	var out []Entry
	for _, file := range Files {
		src, err := optFiles.ReadFile(file + ".opt")
		if err != nil {
			panic(fmt.Sprintf("suite: %v", err))
		}
		ts, err := parser.Parse(string(src))
		if err != nil {
			panic(fmt.Sprintf("suite: %s.opt: %v", file, err))
		}
		lines := strings.Split(string(src), "\n")
		for _, t := range ts {
			// A marker is the line above the transform's Name: line.
			prev := t.DeclPos.Line - 2
			e := Entry{Name: t.Name, File: file}
			e.WantInvalid = prev >= 0 && strings.TrimSpace(lines[prev]) == invalidMark
			t.Name = ""
			e.Text = t.String()
			out = append(out, e)
		}
	}
	return out
})

// All returns the full corpus (correct entries plus the Figure 8 bugs).
func All() []Entry { return slices.Clone(corpus()) }

// ByFile groups the corpus by InstCombine file.
func ByFile() map[string][]Entry {
	m := map[string][]Entry{}
	for _, e := range corpus() {
		m[e.File] = append(m[e.File], e)
	}
	return m
}

// Figure8 returns the eight wrong transformations of Figure 8.
func Figure8() []Entry {
	var out []Entry
	for _, e := range corpus() {
		if e.WantInvalid {
			out = append(out, e)
		}
	}
	return out
}

// Fixed returns corrected variants of the Figure 8 bugs (used by the
// re-translation check of Section 6.1: "We re-translated the fixed
// optimizations to Alive and proved them correct").
func Fixed() []Entry { return fixedFigure8 }

// PatchSequence returns the Section 6.2 patch-review reconstruction:
// two buggy revisions followed by the correct third revision.
func PatchSequence() []PatchRevision { return patchSequence }

// PatchRevision is one submitted revision of the Section 6.2 patch.
type PatchRevision struct {
	Revision int
	Text     string
	// WantValid is true only for the final revision.
	WantValid bool
}

// Parse parses one entry, panicking on syntax errors (the corpus is
// embedded; a parse failure is a programming error caught by the tests).
func (e Entry) Parse() *ir.Transform {
	t, err := parser.ParseOne(e.Text)
	if err != nil {
		panic(fmt.Sprintf("suite: entry %s does not parse: %v", e.Name, err))
	}
	if t.Name == "" {
		t.Name = e.Name
	}
	return t
}

// ParseAll parses the whole corpus.
func ParseAll() []*ir.Transform {
	var out []*ir.Transform
	for _, e := range corpus() {
		out = append(out, e.Parse())
	}
	return out
}
