// Command perfbench is the repository's benchmark. It runs fixed-seed
// simulator workloads (paper, mesh-1600, web-churn) through the public
// entry points, one simulation at a time, checks every output, and
// prints end-to-end metrics (--trace 0) or per-layer metrics from a
// separately traced run (--trace 1) as the last line of standard output.
// See README.md for the metrics and how to read them.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(childMain(job))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain is the allocation-profile process (see allocPass).
func childMain(job string) int {
	runtime.MemProfileRate = allocProfileRate
	res, err := allocChild(job)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: allocation pass:", err)
		return 1
	}
	return 0
}

// resultsDir, relative to the checkout root, receives each run's full
// record and, for traced runs, its spans.
const resultsDir = ".bench_build/results"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "paper, mesh-1600 or web-churn")
	seed := flags.Int64("seed", 1, "benchmark seed; the run's simulation seeds derive from it")
	seconds := flags.Float64("seconds", 20, "how long the untraced run times passes")
	trace := flags.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	record := flags.Bool("record", false, "print this seed's input digests for digests.json instead of measuring")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name, false)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 0 || flags.NArg() > 0) {
		err = fmt.Errorf("--trace takes 0 or 1, --seconds a non-negative number, and no arguments follow")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	all, err := recordedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := newBench(w, *seed, all[w.name])
	if *record {
		return recordDigests(b, stdout, stderr)
	}
	h := fingerprint()
	header, _ := json.Marshal(map[string]any{"host": h, "workload": w.name, "seed": *seed, "inputs": b.seeds})
	fmt.Fprintf(stdout, "%s\n", header)

	start := time.Now()
	var values map[string]float64
	var defs []metricDef
	if *trace == 1 {
		values, err = b.traced(false)
		defs = perLayer()
	} else {
		values, err = b.measure(time.Duration(*seconds * float64(time.Second)))
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	report(stderr, b, res, defs, time.Since(start))
	if err := writeRecord(b, h, *seed, *trace, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// recordDigests runs each input once and prints its digest entries.
func recordDigests(b *bench, stdout, stderr io.Writer) int {
	b.recorded = nil
	out := map[string]digest{}
	for _, seed := range b.seeds {
		if o, _, _, ok := b.pass(seed, false, nil); ok {
			out[strconv.FormatInt(seed, 10)] = digest{o.events, o.digest}
		}
	}
	if b.failed > 0 {
		fmt.Fprintln(stderr, "perfbench:", strings.Join(b.problems, "; "))
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]map[string]digest{b.w.name: out}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the run for a reader: every metric with its unit, the
// failure rate, any problems, and on traced runs the layer shares.
func report(w io.Writer, b *bench, res result, defs []metricDef, took time.Duration) {
	fmt.Fprintf(w, "perfbench %s: %d inputs, %d calls, failed_runs_frac %g, %.1f s\n",
		b.w.name, len(b.seeds), res.Attempted, float64(res.Failed)/float64(res.Attempted), took.Seconds())
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if b.cpuNS != nil {
		shares := layerShares(b.cpuNS)
		byShare := slices.Clone(layers)
		slices.SortStableFunc(byShare, func(x, y string) int { return cmp.Compare(shares[y], shares[x]) })
		fmt.Fprint(w, "  CPU share by layer:")
		for _, l := range byShare {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*shares[l])
		}
		fmt.Fprintln(w)
	}
	for _, p := range b.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
}

// writeRecord keeps the run's full record, and a traced run's spans as a
// Chrome trace, under resultsDir.
func writeRecord(b *bench, h host, seed int64, trace int, res result) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", b.w.name, seed, trace))
	rec := map[string]any{"host": h, "workload": b.w.name, "seed": seed, "inputs": b.seeds,
		"result": res, "problems": b.problems}
	if b.tr != nil {
		self := map[string]float64{}
		for name, d := range b.tr.selfTimes() {
			self[name] = d.Seconds()
		}
		rec["span_self_s"] = self
		f, err := os.Create(base + ".spans.json")
		if err != nil {
			return err
		}
		if err := b.tr.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", data, 0o644)
}

// host fingerprints the machine and code a result came from; results
// compare only when these match.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes go.mod and internal/, which identifies the
	// simulator code where the checkout carries no git metadata.
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint() host {
	h := host{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h.Commit = commit()
	h.SourceSHA256 = sourceDigest()
	return h
}

// commit reads the checked-out commit from the checkout's .git, if any.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown" // e.g. a packed ref
	}
	return strings.TrimSpace(string(id))
}

func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	sum := sha256.New()
	for _, f := range append([]string{"go.mod"}, files...) {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(sum, "%s %d\n", f, len(data))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))
}
