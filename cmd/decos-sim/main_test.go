package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runSimArg as the first argument makes the test binary run decos-sim's
// main on the arguments after it, so a test can observe its output and
// exit status.
const runSimArg = "run-decos-sim"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runSimArg {
		os.Args = append([]string{"decos-sim"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs decos-sim with args and returns its stderr and exit status.
func runSim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runSimArg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatalf("decos-sim %v: %v", args, err)
	return "", 0
}

// TestInjectionTimeValidated: -at must fall in the run, as the pack
// validator requires of at_ms. Before the start the injection cannot be
// scheduled; past the horizon it never strikes and the audit would score
// a fault that never happened. Both are usage errors naming -at.
func TestInjectionTimeValidated(t *testing.T) {
	for _, at := range []string{"-1", "5000", "101"} {
		stderr, code := runSim(t, "-fault", "seu", "-at", at, "-rounds", "100")
		if code != 2 || !strings.Contains(stderr, "-at "+at) || strings.Contains(stderr, "panic") {
			t.Errorf("-at %s -rounds 100: exit %d, stderr %q; want exit 2 naming -at", at, code, stderr)
		}
	}
	// The horizon itself is inside the run, as for at_ms.
	if stderr, code := runSim(t, "-fault", "seu", "-at", "100", "-rounds", "100"); code == 2 {
		t.Errorf("-at 100 -rounds 100: exit 2, stderr %q", stderr)
	}
}
