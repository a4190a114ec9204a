package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resultFile is bench/out/result.json: one schema for every number the
// repository reports, stamped with where it was measured.
type resultFile struct {
	Schema int                         `json:"schema"`
	Env    envStamp                    `json:"env"`
	Sets   []map[string]workloadResult `json:"sets"` // per set: workload name -> result
}

type envStamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of the generator; daemons use the machine's
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	CPUModel   string  `json:"cpu_model"`
	BuildS     float64 `json:"build_s"` // go build of the harness and spiderkv, not part of any metric
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	WallS     float64            `json:"wall_s"` // of the untraced child process, set-up included
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

func stampEnv(seed uint64, seconds float64) envStamp {
	e := envStamp{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: 2, NProc: runtime.NumCPU(),
		Seed: seed, Seconds: seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	e.BuildS, _ = strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64)
	return e
}

// runChild runs one workload in a fresh process of this program, passes
// its metric lines through, and returns the JSON object of its last line.
func runChild(o options, workload string, trace bool) (*reported, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceArg,
		"-spiderkv", o.kvBin, "-spec", o.specPath, "-out", o.outDir)
	// The child dies with this process, and its daemons with the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace=%s): %w", workload, traceArg, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var rep reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &rep, nil
}

func values(m map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

// runSets runs n full sets of every workload, untraced then traced, writes
// the result file, and with n > 1 fails unless the sets agree.
func runSets(spec *benchSpec, o options) error {
	n, outDir := o.sets, o.outDir
	if n < 1 {
		return errors.New("-sets must be at least 1")
	}
	file := resultFile{Schema: 1, Env: stampEnv(o.seed, o.seconds)}
	incorrect := 0
	for set := 1; set <= n; set++ {
		results := map[string]workloadResult{}
		var untraced time.Duration
		for _, w := range spec.Workloads {
			t0 := time.Now()
			e2e, err := runChild(o, w.Name, false)
			if err != nil {
				return err
			}
			wall := time.Since(t0)
			untraced += wall
			layers, err := runChild(o, w.Name, true)
			if err != nil {
				return err
			}
			if !e2e.Correct || !layers.Correct {
				incorrect++
			}
			results[w.Name] = workloadResult{
				Correct: e2e.Correct && layers.Correct, Attempted: e2e.Attempted, Failed: e2e.Failed + layers.Failed,
				WallS: wall.Seconds(), EndToEnd: values(e2e.Metrics), PerLayer: values(layers.Metrics),
			}
		}
		fmt.Printf("set %d of %d: the untraced pass of all %d workloads took %.1f s\n", set, n, len(spec.Workloads), untraced.Seconds())
		file.Sets = append(file.Sets, results)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if incorrect > 0 {
		return fmt.Errorf("%d workload runs failed their output checks", incorrect)
	}
	if n == 1 {
		return nil
	}
	disagree := 0
	fmt.Printf("%-13s %-13s %12s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vals := acrossSets(file.Sets, w.Name, m.Name)
			sp := rangeSpread(vals)
			verdict := "agree"
			if sp > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-13s %-13s %12.6g %7.2f%% %7.2f%%  %s\n", w.Name, m.Name, median(vals), 100*sp, 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics differ between sets of the same code by more than their bound", disagree)
	}
	return nil
}

func acrossSets(sets []map[string]workloadResult, workload, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		if r, ok := s[workload]; ok {
			if v, ok := r.EndToEnd[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// rangeSpread is (max-min)/|median|: with the two or three sets a result
// file holds, the whole range is the only honest spread there is.
func rangeSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	med := math.Abs(median(xs))
	if med == 0 {
		return 0
	}
	return (hi - lo) / med
}

// verdict applies one metric's bound to a baseline and a candidate. worse
// is how much worse the candidate's median is, as a share of the
// baseline's, in the metric's own direction (negative: better). A spread
// across either side's sets wider than the bound leaves the pair
// unresolved, whatever the medians say.
func verdict(m metricSpec, base, cand []float64) (worse float64, v string) {
	b, c := median(base), median(cand)
	if b != 0 {
		worse = (c - b) / math.Abs(b)
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case len(base) == 0 || len(cand) == 0:
		return 0, "missing"
	case math.Max(rangeSpread(base), rangeSpread(cand)) > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric and fails
// on any regression.
func compareFiles(spec *benchSpec, basePath, candPath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	cand, err := readResult(candPath)
	if err != nil {
		return err
	}
	fmt.Printf("baseline  %s  commit %s  %d set(s)\n", basePath, base.Env.Commit, len(base.Sets))
	fmt.Printf("candidate %s  commit %s  %d set(s)\n", candPath, cand.Env.Commit, len(cand.Sets))
	fmt.Printf("%-13s %-13s %12s %12s %9s %8s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "")
	regressions := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := acrossSets(base.Sets, w.Name, m.Name), acrossSets(cand.Sets, w.Name, m.Name)
			worse, v := verdict(m, b, c)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Printf("%-13s %-13s %12.6g %12.6g %+8.2f%% %7.2f%%  %s\n", w.Name, m.Name, median(b), median(c), 100*worse, 100*m.Bound, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond the bounds", regressions)
	}
	return nil
}
