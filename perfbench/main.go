// Command perfbench is the repository's benchmark: it drives the Ψ engine
// through its public entry points on three seeded workloads, checks every
// answer against an independent oracle, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload contain-race|embed-race|serve-churn|serve-churn-overlap --seed N --seconds S --trace 0|1
//	perfbench --smoke
//
// With --trace 0 it reports the end-to-end metrics of the named workload;
// with --trace 1 it times calls into each layer's public functions from
// outside the program and reports the per-layer metrics of every workload
// (see README.md for the layer map). --smoke runs every workload on small
// inputs with all checks on. run.sh builds and runs it from a checkout.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is a run's result: the last line of standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// notes are human-readable lines printed before the result: figures
	// outside the JSON result and the first wrong answers, if any.
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fromLoop fills the operation counts and correctness of r from a loop.
func (r *report) fromLoop(s *loopStats) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	if s.nwrong > 0 {
		r.Correct = false
		r.note("%d wrong answers; first: %s", s.nwrong, strings.Join(s.wrong, "; "))
	}
}

func newReport() *report { return &report{Correct: true, Metrics: metrics{}} }

// shapes selects full-size or smoke-size inputs.
type shapes struct {
	contain containShape
	embed   embedShape
	churn   churnShape
}

var (
	fullShapes  = shapes{containFull, embedFull, churnFull}
	smokeShapes = shapes{containSmoke, embedSmoke, churnSmoke}
)

var workloads = map[string]func(seed int64, seconds float64, sh shapes) (*report, error){
	"contain-race": runContain,
	"embed-race":   runEmbed,
	"serve-churn": func(seed int64, seconds float64, sh shapes) (*report, error) {
		return runChurn(seed, seconds, sh, false)
	},
	// serve-churn-overlap is a check, not a workload of BENCHMARK.json: it
	// runs serve-churn's writer beside its reader (see churn.go).
	"serve-churn-overlap": func(seed int64, seconds float64, sh shapes) (*report, error) {
		return runChurn(seed, seconds, sh, true)
	},
}

var workloadOrder = []string{"contain-race", "embed-race", "serve-churn"}

func main() {
	name := flag.String("workload", "", "workload: contain-race, embed-race, serve-churn or serve-churn-overlap")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs at least")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from the traced run instead")
	smoke := flag.Bool("smoke", false, "run every workload and the traced run on small inputs with all checks on")
	flag.Parse()

	steal0 := stealSeconds()
	start := time.Now()
	var (
		rep *report
		err error
	)
	switch {
	case *smoke:
		rep, err = runSmoke(*seed)
	case *trace == 1:
		rep, err = runTrace(*seed, fullShapes)
	case *trace != 0:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	default:
		run, ok := workloads[*name]
		if !ok {
			err = fmt.Errorf("unknown --workload %q (want one of %s or serve-churn-overlap)", *name, strings.Join(workloadOrder, ", "))
			break
		}
		rep, err = run(*seed, *seconds, fullShapes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	prov := provenance(*name, *seed, *trace, time.Since(start), stealSeconds()-steal0)
	b, _ := json.Marshal(prov) // a map of strings and numbers always marshals
	fmt.Fprintf(out, "provenance %s\n", b)
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	b, err = json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", b)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runSmoke runs every workload and the traced run on small inputs, merging
// their results: correct only if every check of every part held.
func runSmoke(seed int64) (*report, error) {
	all := newReport()
	parts := append([]string(nil), workloadOrder...)
	parts = append(parts, "trace")
	for _, name := range parts {
		var (
			rep *report
			err error
		)
		if name == "trace" {
			rep, err = runTrace(seed, smokeShapes)
		} else {
			rep, err = workloads[name](seed, 0.2, smokeShapes)
		}
		if err != nil {
			return nil, fmt.Errorf("smoke %s: %w", name, err)
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, v := range rep.Metrics {
			all.Metrics[name+"."+k] = v
		}
		for _, n := range rep.notes {
			all.note("%s: %s", name, n)
		}
	}
	return all, nil
}

// provenance records where and how a run happened, so that a slow run can
// be traced to host contention rather than to the code. Host steal is a
// diagnostic, not a metric.
func provenance(workload string, seed int64, trace int, wall time.Duration, steal float64) map[string]any {
	p := map[string]any{
		"workload":      workload,
		"seed":          seed,
		"trace":         trace,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        "unknown",
		"wall_s":        wall.Seconds(),
		"host_steal_s":  steal,
		"source_sha256": sourceDigest(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value == "true"
			}
		}
	}
	return p
}

// sourceDigest identifies the Go sources a checkout builds from, for runs
// in checkouts that carry no commit: a SHA-256 over the path and contents
// of every .go file and go.mod below the working directory, in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "perfbench-tmp-")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stealSeconds is the host's cumulative steal time over all CPUs, from the
// first line of /proc/stat (USER_HZ ticks, 100 per second on Linux); -1
// when it cannot be read.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}
