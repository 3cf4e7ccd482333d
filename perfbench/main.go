// Command perfbench is netplace's end-to-end benchmark. It boots real
// netplaced processes, drives one closed-loop workload against them from
// this single generator process, checks every output against an
// in-process solve, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	perfbench -bin <netplaced> -work <dir> --workload whatif-sweep \
//	          --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it replays the same seeded operations against servers
// started with -pprof and times the public functions of each layer from
// outside, reporting the per-layer metrics and writing a span file. See
// METRICS.md for what each metric measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs caps the generator's own parallelism: the servers share the
// same cores, and a generator that spreads wider measures the scheduler.
const maxProcs = 2

// setups is how many times a run boots and warms its deployment;
// setup_s is the median, the last deployment carries the timed load.
const setups = 5

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
	spans    string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var fail checkError
		if errors.As(err, &fail) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// checkError marks a run whose outputs were wrong; the result line has
// already been printed with correct=false.
type checkError struct{ err error }

func (e checkError) Error() string { return "output check failed: " + e.err.Error() }

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.bin, "bin", "", "netplaced executable")
	fs.StringVar(&o.work, "work", "", "scratch directory for server data directories and logs")
	fs.StringVar(&o.spans, "spans", "", "directory the traced run writes its span file to (default: -work)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case workloads[o.workload] == nil:
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case o.bin == "" || o.work == "":
		return o, fmt.Errorf("-bin and -work are required")
	}
	if o.spans == "" {
		o.spans = o.work
	}
	if _, err := os.Stat(o.bin); err != nil {
		return o, fmt.Errorf("netplaced binary: %w", err)
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	installControlTransport()

	w := workloads[o.workload]()
	env := &runEnv{opts: o, dir: work}
	steal := readSteal()
	var res result
	var meta map[string]any
	var checkErr error
	if o.trace {
		res, meta, checkErr, err = traceRun(env, w)
	} else {
		res, meta, checkErr, err = measureRun(env, w)
	}
	if err != nil {
		return err
	}
	if meta == nil {
		meta = map[string]any{}
	}
	for k, v := range runMetadata(o) {
		meta[k] = v
	}
	meta["steal_frac"] = steal.since()
	meta["max_open_conns"] = conns.max.Load()
	meta["dials"] = conns.dials.Load()
	if checkErr != nil {
		meta["check_error"] = checkErr.Error()
	}
	res.Correct = checkErr == nil
	if err := printResult(stdout, meta, res); err != nil {
		return err
	}
	if checkErr != nil {
		return checkError{checkErr}
	}
	return nil
}

// printResult writes the metadata line and then the result line, which
// must be the last line of standard output.
func printResult(w io.Writer, meta map[string]any, res result) error {
	mb, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", mb, rb)
	return err
}

// runMetadata is the machine fingerprint recorded next to every result,
// so a noisy host shows up beside its numbers.
func runMetadata(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commitOf(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf is the commit run.sh recorded in PERFBENCH_COMMIT, if any: a
// checkout without git history reports "unknown".
func commitOf() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runEnv is what every workload phase needs from the run.
type runEnv struct {
	opts options
	dir  string
	n    int // setup counter, for per-deployment directory names
}

// subdir returns a fresh directory under the run's scratch directory.
func (e *runEnv) subdir(prefix string) (string, error) {
	e.n++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, e.n))
	return d, os.MkdirAll(d, 0o755)
}

// deadline is the end of a timed phase starting now.
func (e *runEnv) deadline() time.Time {
	return time.Now().Add(time.Duration(e.opts.seconds) * time.Second)
}
