// Command bench is the one harness for the whole system: it runs the five
// named workloads of BENCHMARK.json against the trainer and against real
// spiderkv subprocesses, checks their outputs, and prints every metric.
//
//	bash bench/run.sh                       # every workload, untraced then traced; writes bench/out/result.json
//	bash bench/run.sh -sets 2               # two full sets, and whether they agree within the bounds
//	bash bench/run.sh -compare A.json B.json
//	bash bench/run.sh --workload wire_get --seed 7 --seconds 12 --trace 0
//
// run.sh builds this program and cmd/spiderkv from source and passes the
// daemon's path in -spiderkv. The last form is what a driver calls: one
// workload in one process, one JSON object on the last line of standard
// output. See README.md for what every metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workloads maps the names BENCHMARK.json declares to what runs.
var workloads = map[string]func(*runContext) (*outcome, error){
	"train_local":  func(rc *runContext) (*outcome, error) { return runTrain(rc, trainLocal) },
	"train_remote": func(rc *runContext) (*outcome, error) { return runTrain(rc, trainRemote) },
	"wire_get":     func(rc *runContext) (*outcome, error) { return runWire(rc, wireGet) },
	"wire_nget":    func(rc *runContext) (*outcome, error) { return runWire(rc, wireNGet) },
	"cluster_rw":   runClusterRW,
}

// runContext is what a workload is given.
type runContext struct {
	spec    *benchSpec
	seed    uint64
	seconds float64
	trace   bool
	kvBin   string

	mu     sync.Mutex
	fleets []*fleet
}

// span is a share of the run's measuring time.
func (rc *runContext) span(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// newFleet returns a fleet that stopAll also reaches.
func (rc *runContext) newFleet() *fleet {
	f := &fleet{bin: rc.kvBin}
	rc.mu.Lock()
	rc.fleets = append(rc.fleets, f)
	rc.mu.Unlock()
	return f
}

func (rc *runContext) stopAll() {
	rc.mu.Lock()
	fleets := rc.fleets
	rc.mu.Unlock()
	for _, f := range fleets {
		f.stop()
	}
}

// A workload sets up at least setupRuns times, and goes on setting up
// until setupFloor has been spent (or setupRunsMax reached): the sandbox
// has slow stretches of half a second, and the median of a set-up of a few
// milliseconds is only steady once its samples span several of them.
// setup_s is the median, and the last set-up is the one measured on.
const (
	setupRuns    = 3
	setupRunsMax = 1001
	setupFloor   = 2 * time.Second
)

// setupMedian runs setup repeatedly, tearing down all but the last, and
// returns the last environment with the median set-up time in seconds.
func setupMedian[T interface{ close() }](setup func() (T, error)) (T, float64, error) {
	var times []float64
	begin := time.Now()
	for {
		t0 := time.Now()
		env, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if n := len(times); n == setupRunsMax || n >= setupRuns && time.Since(begin) >= setupFloor {
			return env, median(times), nil
		}
		env.close()
	}
}

// outcome is what a workload hands back.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed output checks, first few
	trace     *traceLog
}

func (o *outcome) problem(format string, a ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, a...))
	}
}

// count adds a load phase's requests and failures.
func (o *outcome) count(r *phaseResult) {
	o.attempted += r.sent
	o.failed += r.failed
	if r.failed > 0 {
		o.problem("%d of %d requests failed: %s", r.failed, r.sent, r.firstErr)
	}
}

func (o *outcome) failRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// verifiedShare is the share of operations whose outcome passed its check.
func (o *outcome) verifiedShare() float64 { return 1 - o.failRatio() }

// reported is the JSON object a single-workload run prints last.
type reported struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report checks the outcome's metrics against the declared set (every
// declared metric present and finite, nothing undeclared) and attaches
// the declared units.
func report(spec *benchSpec, o *outcome, trace bool) (*reported, error) {
	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
	}
	rep := &reported{
		Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(declared)),
	}
	for _, d := range declared {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range o.metrics {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	if rep.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return rep, nil
}

// zeroLayerMetrics starts a traced run's metrics with every declared
// per-layer metric at 0: a layer the workload bypasses reads 0, which is
// itself the prediction checked for it.
func (rc *runContext) zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(rc.spec.PerLayer))
	for _, d := range rc.spec.PerLayer {
		m[d.Name] = 0
	}
	return m
}

// peakRSS sums the resident-set high-water marks of this process and of
// the fleet's daemons.
func peakRSS(f *fleet) float64 {
	return peakRSSMiB(os.Getpid()) + peakRSSAll(f.pids())
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	kvBin    string
	specPath string
	outDir   string
	sets     int
	compare  bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line (default: all of them, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: traced pass, reports the per-layer metrics")
	flag.StringVar(&o.kvBin, "spiderkv", "", "path of the spiderkv binary (bench/run.sh builds it)")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark's declaration")
	flag.StringVar(&o.outDir, "out", "bench/out", "where result.json and traces are written")
	flag.IntVar(&o.sets, "sets", 1, "run this many full sets and report whether they agree within the bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments: baseline, then candidate")
	flag.Parse()
	o.trace = trace != 0
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result files: baseline, then candidate")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.kvBin == "" {
		return errors.New("-spiderkv is required (run the benchmark through bench/run.sh)")
	}
	if o.workload == "" {
		return runSets(spec, o)
	}
	workload := o.workload
	fn, ok := workloads[workload]
	if !ok || !spec.hasWorkload(workload) {
		return fmt.Errorf("unknown workload %q (declared: %v)", workload, spec.workloadNames())
	}

	// The load is sized for the 2-core reference box and must not grow
	// with the machine it happens to run on.
	runtime.GOMAXPROCS(2)
	rc := &runContext{spec: spec, seed: o.seed, seconds: o.seconds, trace: o.trace, kvBin: o.kvBin}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		rc.stopAll()
		os.Exit(130)
	}()
	defer rc.stopAll()

	res, err := fn(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	rc.stopAll()
	if res.trace != nil {
		if err := res.trace.write(o.outDir); err != nil {
			return err
		}
	}
	rep, err := report(spec, res, o.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", workload, p)
	}
	printMetrics(workload, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics prints one `workload metric value unit` line per metric.
func printMetrics(workload string, rep *reported) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", workload, n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
