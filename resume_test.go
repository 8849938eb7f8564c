// Crash-safety gate: a sweep SIGKILLed mid-matrix and re-run with -resume
// must produce output byte-identical to an uninterrupted run, serving the
// already-completed cells from the store. Exercises the real binaries as
// subprocesses — the kill has to land on a live process, not a test seam.
package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"aggmac/internal/store"
)

// buildBinary compiles a command for subprocess tests.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func countObjects(dir string) int {
	m, _ := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	return len(m)
}

var cachedRe = regexp.MustCompile(`(\d+) cell\(s\) cached`)

// TestKillAndResumeByteIdentical is the acceptance gate for crash-safe
// sweeps: reference run (no store), interrupted run (killed after at least
// two cells land durably), resumed run — whose stdout must equal the
// reference byte for byte, with at least one cell served from the cache.
func TestKillAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills subprocesses")
	}
	bin := buildBinary(t, "./cmd/aggbench")
	args := []string{"-quick", "-exp", "fig7", "-seed", "3", "-json"}

	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	storeDir := filepath.Join(t.TempDir(), "results")
	withStore := append(append([]string{}, args...), "-store", storeDir, "-resume", "-parallel", "1")

	// Interrupted run: serial so cells land one at a time, killed as soon
	// as a couple of objects are durably on disk.
	victim := exec.Command(bin, withStore...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		if countObjects(storeDir) >= 2 {
			_ = victim.Process.Kill()
			killed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = victim.Wait()
	if !killed {
		t.Fatal("sweep never landed two cells; nothing to interrupt")
	}
	landed := countObjects(storeDir)
	if landed < 2 {
		t.Fatalf("only %d objects on disk after the kill", landed)
	}

	// Resumed run: must finish cleanly, match the uninterrupted output
	// exactly, and report the surviving cells as cache hits.
	var stdout, stderr bytes.Buffer
	resumed := exec.Command(bin, withStore...)
	resumed.Stdout, resumed.Stderr = &stdout, &stderr
	if err := resumed.Run(); err != nil {
		t.Fatalf("resumed run failed: %v\nstderr: %s", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), ref) {
		t.Error("resumed run's stdout differs from the uninterrupted run")
	}
	m := cachedRe.FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no resume summary on stderr: %q", stderr.String())
	}
	if cached, _ := strconv.Atoi(m[1]); cached < 1 {
		t.Errorf("resume summary reports %d cached cells, want >= 1 (stderr: %s)", cached, stderr.String())
	}

	// A third run over the warm store executes nothing at all.
	stdout.Reset()
	stderr.Reset()
	warm := exec.Command(bin, withStore...)
	warm.Stdout, warm.Stderr = &stdout, &stderr
	if err := warm.Run(); err != nil {
		t.Fatalf("warm run failed: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), ref) {
		t.Error("warm run's stdout differs from the uninterrupted run")
	}
	if m := cachedRe.FindStringSubmatch(stderr.String()); m == nil || m[1] == "0" {
		t.Errorf("warm run served nothing from cache: %s", stderr.String())
	}
}

func exitCode(t *testing.T, bin string, args ...string) int {
	t.Helper()
	err := exec.Command(bin, args...).Run()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("%s %v: %v", bin, args, err)
	return -1
}

// TestUsageErrorsExitTwoWithoutTouchingStore pins the exit-code contract:
// flag/validation problems exit 2 and never create the store directory,
// keeping them distinguishable from run failures (exit 1) in scripts.
func TestUsageErrorsExitTwoWithoutTouchingStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds subprocesses")
	}
	bench := buildBinary(t, "./cmd/aggbench")
	sim := buildBinary(t, "./cmd/aggsim")
	storeDir := filepath.Join(t.TempDir(), "never-created")

	cases := []struct {
		name string
		bin  string
		args []string
	}{
		{"bench unknown experiment", bench, []string{"-exp", "no-such-exp", "-store", storeDir, "-resume"}},
		{"bench resume without store", bench, []string{"-resume", "-exp", "fig7"}},
		{"bench negative retries", bench, []string{"-retries", "-1", "-exp", "fig7", "-store", storeDir}},
		{"bench json+csv", bench, []string{"-json", "-csv", "-store", storeDir}},
		{"sim resume without store", sim, []string{"-resume"}},
		{"sim store on single run", sim, []string{"-store", storeDir}},
		{"sim store on mesh run", sim, []string{"-topo", "grid", "-store", storeDir}},
		{"sim store with trace", sim, []string{"-scheme", "na,ba", "-store", storeDir, "-trace"}},
		{"sim grid with negative nodes", sim, []string{"-topo", "grid", "-nodes", "-5", "-flows", "2"}},
		{"sim disk with one node", sim, []string{"-topo", "disk", "-nodes", "1"}},
		{"sim negative speed", sim, []string{"-topo", "grid", "-mobility", "waypoint", "-speed", "-1"}},
		{"sim workload negative speed", sim, []string{"-topo", "grid", "-arrival-rate", "0.5", "-speed", "-1"}},
		{"sim negative pause", sim, []string{"-topo", "grid", "-mobility", "waypoint", "-pause", "-1s"}},
		{"sim zero move interval", sim, []string{"-topo", "grid", "-mobility", "drift", "-move-interval", "0"}},
	}
	for _, c := range cases {
		if code := exitCode(t, c.bin, c.args...); code != 2 {
			t.Errorf("%s: exit code %d, want 2", c.name, code)
		}
	}
	if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
		t.Error("a usage error created the store directory")
	}
}

// TestLockedStoreExitsOne: environment failures (another writer holds the
// store) are run failures, exit 1 — not usage errors.
func TestLockedStoreExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("builds subprocesses")
	}
	bench := buildBinary(t, "./cmd/aggbench")
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code := exitCode(t, bench, "-quick", "-exp", "fig7", "-store", dir); code != 1 {
		t.Errorf("locked store: exit code %d, want 1", code)
	}
}
