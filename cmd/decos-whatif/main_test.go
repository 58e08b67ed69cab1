package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/scenario"
	"decos/internal/sim"
)

// runWhatifArg as the first argument makes the test binary run
// decos-whatif's main on the arguments after it, so a test can observe
// its output and exit status.
const runWhatifArg = "run-decos-whatif"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runWhatifArg {
		os.Args = append([]string{"decos-whatif"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runWhatif runs decos-whatif with args and returns its stdout, stderr
// and exit status.
func runWhatif(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runWhatifArg}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("decos-whatif %v: %v", args, err)
	return "", "", 0
}

// record writes what `decos-sim -seed 7 -rounds 400 -fault intermittent
// -at 100 -checkpoint-every 100` does into a new directory: the engine
// checkpoints ckpt_100.bin … ckpt_400.bin.
func record(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	plan := []scenario.InjectPlan{{Kind: scenario.KindIntermittent, At: 100 * sim.Time(sim.Millisecond)}}
	eng := scenario.Fig10(7, diagnosis.Options{}, plan, engine.WithCheckpointSink(func(round int64, data []byte) error {
		return os.WriteFile(filepath.Join(dir, fmt.Sprintf("ckpt_%d.bin", round+1)), data, 0o644)
	}, 100))
	if err := eng.Cluster.RunRounds(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	if eng.CkptErr != nil {
		t.Fatal(eng.CkptErr)
	}
	return dir
}

// TestInjectionTimesValidated: -at and -h-at must fall in the run, as
// decos-sim requires of -at. An injection past the horizon never strikes,
// so the replay would report "no divergence" for a fault that never
// happened; one before the start cannot be scheduled. Each is a usage
// error naming its flag. -h-at 0 means "at the restore point", and the
// horizon itself is inside the run.
func TestInjectionTimesValidated(t *testing.T) {
	dir := record(t)
	recorded := []string{"-ckpt-dir", dir, "-seed", "7", "-rounds", "400"}
	inject := func(hAt string) []string {
		return append(recorded, "-fault", "intermittent", "-at", "100",
			"-hypothesis", "inject", "-h-fault", "seu", "-h-at", hAt)
	}
	for _, c := range []struct {
		args []string
		flag string
	}{
		{inject("99999"), "-h-at 99999"},
		{inject("-5"), "-h-at -5"},
		{append(recorded, "-fault", "intermittent", "-at", "-7", "-hypothesis", "remove"), "-at -7"},
	} {
		stdout, stderr, code := runWhatif(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.flag+": ") || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no analysis", c.flag, code, stdout, stderr, c.flag)
		}
	}
	for _, hAt := range []string{"0", "400"} {
		if stdout, stderr, code := runWhatif(t, inject(hAt)...); code != 0 || !strings.Contains(stdout, "injected seu") {
			t.Errorf("-h-at %s: exit %d, stdout %q, stderr %q; want the analysis", hAt, code, stdout, stderr)
		}
	}
}
