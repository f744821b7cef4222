package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestUsageErrorsExit2: flags that select nothing runnable exit 2 with a
// diagnostic naming the problem, before any run.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "both2"}, "unknown mode"},
		{[]string{"-fault", "bogus"}, "bogus"},
		{[]string{"-flight", t.TempDir(), "-app", "QQMusic"}, "-flight applies to workload runs"},
	} {
		code, out := dvsim(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("dvsim %v: exit %d, output %q; want exit 2 naming %q", tc.args, code, out, tc.want)
		}
	}
}
