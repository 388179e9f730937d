package verify

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"alive/internal/ir"
)

// Journal is a crash-safe, append-only NDJSON record of corpus verdicts.
// Each verified transformation appends one line keyed by a content hash
// of its printed form; every append is fsync'd before RunCorpus moves
// on, so a SIGKILL (or power loss) part-way through a corpus loses at
// most the verdict in flight. A later run opened on the same file
// restores the journaled verdicts and re-verifies only the rest.
//
// Only deterministic verdicts are journaled: Valid, Invalid, Rejected,
// and Unknown with reason encoding-unsupported. Budget- and
// interrupt-shaped Unknowns (deadline, conflict-budget, cancelled,
// out-of-memory, …) are re-verified on resume, since a second run with
// more headroom may well decide them.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	seen map[string]JournalRecord
	// needNewline is set when the existing file ends in a torn line (a
	// crash mid-append); the next record starts with a newline so the
	// torn tail can never corrupt a fresh record.
	needNewline bool
	err         error // first append/sync failure, sticky
}

// JournalRecord is one journaled verdict. CexText is stored for humans
// reading the journal; restored Invalid results do not reconstruct the
// structured counterexample.
type JournalRecord struct {
	Hash            string `json:"hash"`
	Name            string `json:"name"`
	Verdict         string `json:"verdict"`
	Reason          string `json:"reason,omitempty"`
	Queries         int    `json:"queries"`
	TypeAssignments int    `json:"assignments"`
	Escalations     int    `json:"escalations,omitempty"`
	CexText         string `json:"cex,omitempty"`
	Err             string `json:"err,omitempty"`
}

// journalHeader is the first line of every journal file: it pins the
// format and fingerprints the verification options so a resume with
// different semantics (widths, lint, simplification) is rejected
// instead of silently mixing verdicts.
type journalHeader struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
	Options string `json:"options"`
}

const journalFormat = "alive-corpus"
const journalVersion = 1

// TransformHash is the journal key: a hex SHA-256 of the
// transformation's canonical printed form, so renamed files or
// reordered corpora still resume correctly.
func TransformHash(t *ir.Transform) string {
	sum := sha256.Sum256([]byte(t.String()))
	return hex.EncodeToString(sum[:])
}

// optionsFingerprint captures the Options fields that change what a
// verdict means. Budgets and deadlines are deliberately excluded: they
// only shape which runs end Unknown, and Unknowns are never journaled.
// -resume compares the string verbatim, so a journal whose header was
// written with a different field list (an option added or removed since)
// is rejected rather than trusted.
func optionsFingerprint(o Options) string {
	o = o.withDefaults()
	return fmt.Sprintf("widths=%v divmul=%d ptr=%d maxasg=%d simplify=%t lint=%t presolve=%t preprocess=%t",
		o.Widths, o.DivMulMaxWidth, o.PtrWidth, o.MaxAssignments,
		!o.DisableSimplify, o.Lint, !o.DisablePresolve, !o.DisablePreprocess)
}

// CreateJournal starts a fresh journal at path (truncating any existing
// file), writing and syncing the options-fingerprint header.
func CreateJournal(path string, opts Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, seen: map[string]JournalRecord{}}
	hdr, _ := json.Marshal(journalHeader{Journal: journalFormat, Version: journalVersion, Options: optionsFingerprint(opts)})
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournal opens path for resuming: journaled verdicts become
// immediately visible through Lookup and new verdicts append after
// them. A missing file starts a fresh journal; an existing file whose
// header fingerprint disagrees with opts is refused. A torn final line
// (crash mid-append) is dropped and the file self-heals on the next
// append.
func OpenJournal(path string, opts Options) (*Journal, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return CreateJournal(path, opts)
	}
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, seen: map[string]JournalRecord{}}

	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if first {
			first = false
			var hdr journalHeader
			if json.Unmarshal([]byte(line), &hdr) != nil || hdr.Journal != journalFormat {
				return nil, fmt.Errorf("journal %s: not an alive corpus journal", path)
			}
			if hdr.Version != journalVersion {
				return nil, fmt.Errorf("journal %s: version %d, this build writes %d", path, hdr.Version, journalVersion)
			}
			if want := optionsFingerprint(opts); hdr.Options != want {
				return nil, fmt.Errorf("journal %s: was written with options %q, run has %q — use a fresh journal or matching flags",
					path, hdr.Options, want)
			}
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Hash == "" {
			// Torn or foreign line: drop it. Only a torn *tail* is
			// expected from a crash, but dropping any undecodable line
			// keeps resume total.
			continue
		}
		j.seen[rec.Hash] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal %s: %v", path, err)
	}
	if first {
		// Existing but empty file: treat as fresh.
		return CreateJournal(path, opts)
	}
	j.needNewline = len(data) > 0 && data[len(data)-1] != '\n'

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// Lookup returns the journaled verdict for t, if any.
func (j *Journal) Lookup(t *ir.Transform) (JournalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.seen[TransformHash(t)]
	return rec, ok
}

// Len is the number of distinct journaled verdicts.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// journalable reports whether a verdict is deterministic enough to
// skip on resume.
func journalable(r Result) bool {
	switch r.Verdict {
	case Valid, Invalid, Rejected:
		return true
	case Unknown:
		return r.Reason == ReasonEncoding
	}
	return false
}

// Append journals the verdict for t if it is deterministic and not
// already present. The record is written and fsync'd before Append
// returns; failures are sticky (see Err) and never abort the corpus
// run — losing the journal must not lose verdicts.
func (j *Journal) Append(t *ir.Transform, r Result) {
	if !journalable(r) {
		return
	}
	rec := JournalRecord{
		Hash:            TransformHash(t),
		Name:            t.Name,
		Verdict:         r.Verdict.String(),
		Queries:         r.Queries,
		TypeAssignments: r.TypeAssignments,
		Escalations:     r.Escalations,
	}
	if r.Reason != ReasonNone {
		rec.Reason = r.Reason.String()
	}
	if r.Cex != nil {
		rec.CexText = r.Cex.String()
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.seen[rec.Hash]; dup {
		return
	}
	j.seen[rec.Hash] = rec
	if j.f == nil || j.err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return
	}
	if j.needNewline {
		line = append([]byte{'\n'}, line...)
		j.needNewline = false
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.err = err
		return
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
	}
}

// Err returns the first append failure (nil when the journal is
// healthy).
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file. Appends after Close are recorded
// in memory only.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	f := j.f
	j.f = nil
	if f == nil {
		return nil
	}
	return f.Close()
}

// parseVerdict inverts Verdict.String for journal restore.
func parseVerdict(s string) Verdict {
	switch s {
	case "valid":
		return Valid
	case "invalid":
		return Invalid
	case "rejected":
		return Rejected
	}
	return Unknown
}

// parseReason inverts UnknownReason.String for journal restore.
func parseReason(s string) UnknownReason {
	for r := ReasonNone; r <= ReasonInjected; r++ {
		if r.String() == s {
			return r
		}
	}
	return ReasonNone
}

// restoreResult reconstitutes a journaled verdict as a Result with
// Resumed set.
func restoreResult(t *ir.Transform, rec JournalRecord) Result {
	r := Result{
		Transform:        t,
		Verdict:          parseVerdict(rec.Verdict),
		Reason:           parseReason(rec.Reason),
		Queries:          rec.Queries,
		TypeAssignments:  rec.TypeAssignments,
		Escalations:      rec.Escalations,
		GaveUpAssignment: -1,
		Resumed:          true,
	}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	return r
}
