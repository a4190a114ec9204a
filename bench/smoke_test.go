package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// The harness runs each workload in a child process of itself. Under test
// that child is the test binary, which turns into the harness here.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_HARNESS") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const specFile = "../BENCHMARK.json"

func buildSpiderKV(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spiderkv")
	if out, err := exec.Command("go", "build", "-o", bin, "spidercache/cmd/spiderkv").CombinedOutput(); err != nil {
		t.Fatalf("build spiderkv: %v\n%s", err, out)
	}
	return bin
}

// running lists the processes whose executable is bin.
func running(bin string) []int {
	var pids []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

func waitNoneRunning(t *testing.T, bin string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(running(bin)) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("spiderkv processes %v survived", running(bin))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Every workload, untraced and traced, at one-second scale against real
// subprocesses; the result file must hold exactly what BENCHMARK.json
// declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots spiderkv subprocesses for every workload; about a minute")
	}
	kv := buildSpiderKV(t)
	out := t.TempDir()
	t.Setenv("BENCH_AS_HARNESS", "1")
	if err := run(options{seed: 42, seconds: 1, kvBin: kv, specPath: specFile, outDir: out, sets: 1}, nil); err != nil {
		t.Fatal(err)
	}
	waitNoneRunning(t, kv)

	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	res, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Env.Go == "" || res.Env.NProc < 1 || res.Env.Kernel == "" || res.Env.Seed != 42 {
		t.Errorf("environment stamp incomplete: %+v", res.Env)
	}
	if len(res.Sets) != 1 || len(res.Sets[0]) != len(spec.Workloads) {
		t.Fatalf("result holds %d sets, first with %d workloads", len(res.Sets), len(res.Sets[0]))
	}
	sameNames := func(what string, got map[string]float64, want []metricSpec) {
		t.Helper()
		for _, m := range want {
			if _, ok := got[m.Name]; !ok {
				t.Errorf("%s: declared metric %s is missing", what, m.Name)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
		}
	}
	for _, w := range spec.Workloads {
		r, ok := res.Sets[0][w.Name]
		if !ok {
			t.Errorf("workload %s missing from the result", w.Name)
			continue
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, r.Correct, r.Attempted, r.Failed)
		}
		sameNames(w.Name+" end_to_end", r.EndToEnd, spec.EndToEnd)
		sameNames(w.Name+" per_layer", r.PerLayer, spec.PerLayer)
		for name, v := range r.EndToEnd {
			// A host slow enough (the race detector's) misses every latency
			// limit; every other metric is 0 only if it was not measured.
			if v == 0 && name != "slo_ok_ratio" {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
			}
		}
		if r.PerLayer["check.fail_ratio"] != 0 {
			t.Errorf("%s: fail ratio %v", w.Name, r.PerLayer["check.fail_ratio"])
		}
		b, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var tr traceLog
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.Spans) == 0 {
			t.Errorf("%s: trace file unreadable or empty: %v", w.Name, err)
		}
	}

	// Each workload stresses the layer it was built for and bypasses the rest.
	layer := func(w, m string) float64 { return res.Sets[0][w].PerLayer[m] }
	if v := layer("train_local", "semgraph.scorebatch_share"); v < 0.5 {
		t.Errorf("train_local spends %v of its time scoring, want most of it", v)
	}
	if v := layer("train_remote", "semgraph.scorebatch_share"); v > 0.02 {
		t.Errorf("train_remote spends %v of its time scoring, want none", v)
	}
	if layer("wire_get", "kv.ops_nget") != 0 || layer("wire_get", "kv.sem_near") != 0 || layer("wire_get", "kv.sem_exact") != 0 {
		t.Error("wire_get touched the semantic index")
	}
	if layer("wire_nget", "kv.sem_near") == 0 || layer("wire_nget", "kv.ops_eset") == 0 {
		t.Error("wire_nget served no NEAR reply or indexed nothing")
	}
	for _, w := range spec.Workloads {
		if got := layer(w.Name, "node.repl_ok") > 0; got != (w.Name == "cluster_rw" || w.Name == "train_remote") {
			t.Errorf("%s: replica writes seen = %v", w.Name, got)
		}
	}
}

// A harness killed outright, with no chance to run its teardown, still
// leaves no daemon behind.
func TestKilledHarnessLeavesNoDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("boots spiderkv subprocesses")
	}
	kv := buildSpiderKV(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-workload", "cluster_rw", "-seconds", "30", "-spiderkv", kv, "-spec", specFile, "-out", t.TempDir())
	cmd.Env = append(os.Environ(), "BENCH_AS_HARNESS=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(running(kv)) < clusterNodes {
		if time.Now().After(deadline) {
			t.Fatal("the harness never booted its cluster")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // killed: the exit status says so and nothing more
	waitNoneRunning(t, kv)
}

// SIGINT runs the teardown: daemons are stopped before the harness exits.
func TestInterruptedHarnessStopsDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("boots spiderkv subprocesses")
	}
	kv := buildSpiderKV(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-workload", "wire_get", "-seconds", "30", "-spiderkv", kv, "-spec", specFile, "-out", t.TempDir())
	cmd.Env = append(os.Environ(), "BENCH_AS_HARNESS=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(running(kv)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the harness never booted its server")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Error("an interrupted harness must not exit 0")
	}
	if left := running(kv); len(left) > 0 {
		t.Errorf("daemons %v outlived the interrupted harness", left)
	}
}
