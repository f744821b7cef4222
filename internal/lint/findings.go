package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
)

// Finding is the machine-readable form of a Diagnostic: positions are
// module-relative slash paths so the JSON is stable across checkouts.
type Finding struct {
	// File is the module-root-relative, slash-separated path.
	File string `json:"file"`
	// Line and Col locate the finding for navigation.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Rule names the analyzer that fired.
	Rule string `json:"rule"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// String formats the finding the way compilers do.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Findings converts diagnostics to machine-readable findings with paths
// made relative to root.
func Findings(root string, diags []Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		out = append(out, Finding{
			File:    filepath.ToSlash(file),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	return out
}

// EncodeFindings renders findings as indented JSON (always an array, never
// null, so consumers can iterate unconditionally).
func EncodeFindings(fs []Finding) ([]byte, error) {
	if fs == nil {
		fs = []Finding{}
	}
	b, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
