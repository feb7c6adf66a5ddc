package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestParseGrid(t *testing.T) {
	ts, err := parseGrid("0:100:25")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 25, 50, 75, 100}
	if len(ts) != len(want) {
		t.Fatalf("grid = %v", ts)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("grid = %v", ts)
		}
	}
}

func TestParseGridErrors(t *testing.T) {
	for _, s := range []string{"", "1:2", "a:b:c", "10:5:1", "0:10:0", "0:10:-1"} {
		if _, err := parseGrid(s); err == nil {
			t.Fatalf("parseGrid(%q) accepted", s)
		}
	}
}

// TestAnalysisInvocations runs the built binary over every -analysis
// name plus an unknown one, with and without -sweep. Unknown names and
// analyses -sweep cannot fan out are bad invocations (exit 2) rejected
// before any work starts; every other combination succeeds.
func TestAnalysisInvocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "dramodel")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		analysis        string
		plain, sweepRun int // exit codes without and with -sweep
	}{
		{"reliability", 0, 0},
		{"availability", 0, 0},
		{"mttf", 0, 0},
		{"transient-availability", 0, 2},
		{"interval-availability", 0, 2},
		{"sensitivity", 0, 2},
		{"dot", 0, 2},
		{"nonesuch", 2, 2},
	} {
		for _, sweep := range []bool{false, true} {
			args := []string{"-analysis", tc.analysis, "-n", "4", "-m", "2"}
			want := tc.plain
			if sweep {
				args, want = append(args, "-sweep"), tc.sweepRun
			}
			out, err := exec.Command(bin, args...).CombinedOutput()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != want {
				t.Errorf("dramodel %v: exit %d, want %d\n%s", args, code, want, out)
			}
			if want == 2 && !bytes.Contains(out, []byte(tc.analysis)) {
				t.Errorf("dramodel %v: usage error does not name the analysis:\n%s", args, out)
			}
		}
	}
}
