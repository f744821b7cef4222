package lint_test

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"dvsync/internal/lint"
)

// TestFindingsRelativizePaths: diagnostics inside the module render as
// module-relative slash paths; outside paths are left untouched.
func TestFindingsRelativizePaths(t *testing.T) {
	root := t.TempDir()
	diags := []lint.Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(root, "internal", "x.go"), Line: 3, Column: 7},
			Rule: "hotalloc", Message: "m"},
		{Pos: token.Position{Filename: "/elsewhere/y.go", Line: 1, Column: 1},
			Rule: "locksafe", Message: "n"},
	}
	fs := lint.Findings(root, diags)
	if fs[0].File != "internal/x.go" {
		t.Errorf("File = %q, want module-relative internal/x.go", fs[0].File)
	}
	if fs[0].Line != 3 || fs[0].Col != 7 {
		t.Errorf("position = %d:%d, want 3:7", fs[0].Line, fs[0].Col)
	}
	if fs[1].File != "/elsewhere/y.go" {
		t.Errorf("File = %q, want untouched outside path", fs[1].File)
	}
}

// TestEncodeFindingsNeverNull: consumers iterate the JSON unconditionally.
func TestEncodeFindingsNeverNull(t *testing.T) {
	data, err := lint.EncodeFindings(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("EncodeFindings(nil) = %q, want []", data)
	}
}
