// Command spiderbench regenerates the paper's tables and figures.
//
// Usage:
//
//	spiderbench -exp table4                # one experiment, paper defaults
//	spiderbench -exp all -scale 0.5        # full suite at half scale
//	spiderbench -exp fig14 -format csv     # machine-readable output
//	spiderbench -exp table3 -metrics       # telemetry snapshot after the runs
//	spiderbench -list
//
// Runs use up to GOMAXPROCS cores; the tables are the same at any value.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spidercache/internal/experiments"
	"spidercache/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
		epochs  = flag.Int("epochs", 0, "override each experiment's default epoch count (0 = defaults)")
		seed    = flag.Uint64("seed", 42, "random seed")
		format  = flag.String("format", "text", "output format: text or csv")
		outDir  = flag.String("out", "", "also write each experiment's CSV to <dir>/<id>.csv")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		metrics = flag.Bool("metrics", false, "print the aggregated telemetry snapshot (Prometheus text) at exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.List(), "\n"))
		return
	}
	asCSV := false
	switch strings.ToLower(*format) {
	case "text":
	case "csv":
		asCSV = true
	default:
		fatal("", fmt.Errorf("unknown format %q (want text or csv)", *format))
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal("", err)
		}
	}
	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.List()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, experiments.Options{
			Scale: *scale, EpochOverride: *epochs, Seed: *seed, Metrics: reg,
		})
		if err != nil {
			fatal(id, err)
		}
		if asCSV {
			fmt.Print(rep.CSV())
		} else {
			fmt.Print(rep.String())
			fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, rep.ID+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fatal(id, err)
			}
		}
	}
	if *metrics {
		fmt.Println("--- telemetry snapshot (Prometheus text exposition) ---")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal("", err)
		}
	}
}

func fatal(id string, err error) {
	if id != "" {
		fmt.Fprintf(os.Stderr, "spiderbench: %s: %v\n", id, err)
	} else {
		fmt.Fprintf(os.Stderr, "spiderbench: %v\n", err)
	}
	os.Exit(1)
}
