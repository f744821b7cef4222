package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dvsync/internal/checkpoint"
)

// runMainEnv makes the test binary run dvsim's main instead of its tests,
// so a test can drive the command, exit codes included, without building
// it first.
const runMainEnv = "DVSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dvsim runs the command with args and returns its exit code and its
// combined output.
func dvsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		return ee.ExitCode(), string(out)
	case err != nil:
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestCrashAfterNeedsCheckpointDir: -crash-after-ms without
// -checkpoint-dir used to run to completion and exit 0, crashing nowhere;
// it exits 2 now, as does a negative crash instant.
func TestCrashAfterNeedsCheckpointDir(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "dvsync", "-frames", "60", "-crash-after-ms", "500"}, "-crash-after-ms requires -checkpoint-dir"},
		{[]string{"-mode", "dvsync", "-frames", "60", "-crash-after-ms", "-1",
			"-checkpoint-dir", t.TempDir()}, "-crash-after-ms must not be negative"},
	} {
		code, out := dvsim(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("dvsim %v: exit %d, output %q; want exit 2 naming %q", tc.args, code, out, tc.want)
		}
	}
}

// TestResumeRejectsOldSchema: a checkpoint slot holding a schema-1 state
// snapshot, sealed in a valid envelope under the run's own config digest
// and instant, makes -resume exit non-zero with an error naming the
// marker schema, instead of resuming or starting over silently.
func TestResumeRejectsOldSchema(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-mode", "dvsync", "-frames", "300", "-checkpoint-dir", dir, "-checkpoint-every", "300"}
	if code, out := dvsim(t, append(flags, "-crash-after-ms", "1200")...); code != 3 {
		t.Fatalf("crash run: exit %d, want 3\n%s", code, out)
	}
	path := filepath.Join(dir, "d-vsync.ckpt")
	env, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The top-level layout of the schema-1 state, at the marker's instant.
	schema1 := fmt.Sprintf(`{"at":%d,"engine":{"now":%[1]d,"seq":412,"next_id":412,"fired":398},`+
		`"driver":{"next_idx":58,"started":true,"ticks":59},"accum":{"first_latch":16666666,"last_latch":1183333333}}`,
		env.AtNs)
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, env.ConfigDigest, env.At(), nil, []byte(schema1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + ".prev"); err != nil {
		t.Fatal(err)
	}
	code, out := dvsim(t, append(flags, "-resume")...)
	if code == 0 || !strings.Contains(out, "schema-2 replay marker") {
		t.Errorf("resume over a schema-1 checkpoint: exit %d, output %q; want non-zero naming the schema", code, out)
	}
}
