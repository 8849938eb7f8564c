package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// passBudget bounds the host time of one pass; a slower pass counts as
// failed. The slowest pass measured takes about 3 s.
const passBudget = 60 * time.Second

// Set-up is timed until it has taken at least setupMinTime over at least
// setupMinReps calls, and reported as the median call.
const (
	setupMinReps = 5
	setupMinTime = time.Second
)

// digest is the recorded output of one input: its event count and the
// SHA-256 of its result.
type digest struct {
	Events uint64 `json:"events"`
	SHA256 string `json:"sha256"`
}

// digestsJSON maps workload -> simulation seed -> digest, for the inputs
// of benchmark seeds 1 (primary) and 2 (held out). Regenerate an entry
// with --record.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigests() (map[string]map[string]digest, error) {
	var m map[string]map[string]digest
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// bench is the state of one benchmark run: the workload, its inputs, and
// the tally of attempted and failed calls.
type bench struct {
	w        *workload
	seeds    []int64
	recorded map[string]digest // simulation seed -> digest
	tr       *tracer           // nil on untraced runs
	passes   int
	cpuNS    map[string]int64 // traced runs: CPU time per layer

	attempted, failed int
	problems          []string

	first    map[int64]outcome // first checked outcome per input
	products map[int64]any     // latest product per input
}

func newBench(w *workload, seed int64, recorded map[string]digest) *bench {
	return &bench{w: w, seeds: inputSeeds(seed, w.inputs), recorded: recorded,
		first: map[int64]outcome{}, products: map[int64]any{}}
}

func (b *bench) fail(format string, a ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, a...))
}

// call runs f with panics turned into errors, timing it; cpu, when set,
// receives a CPU profile of f alone.
func call(f func() any, cpu *bytes.Buffer) (res any, wall time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, 0, err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	res = f()
	wall = time.Since(start)
	if wall > passBudget {
		err = fmt.Errorf("took %v, over the %v budget", wall, passBudget)
	}
	return res, wall, err
}

// pass makes one checked pass on input seed. A traced pass (metrics set)
// records spans and telemetry through p and a CPU profile into cpu.
func (b *bench) pass(seed int64, metrics bool, cpu *bytes.Buffer) (outcome, time.Duration, *probe, bool) {
	b.attempted++
	b.passes++
	var p *probe
	if b.tr != nil {
		p = &probe{tr: b.tr, pass: b.passes, metrics: metrics}
	}
	root := p.span("pass")
	res, wall, err := call(func() any { return b.w.pass(seed, p) }, cpu)
	root()
	if err != nil {
		b.fail("input %d: %v", seed, err)
		return outcome{}, 0, p, false
	}
	out, err := b.w.summarize(res)
	if err != nil {
		b.fail("input %d: %v", seed, err)
		return outcome{}, 0, p, false
	}
	if !b.check(seed, out, metrics) {
		return outcome{}, 0, p, false
	}
	b.products[seed] = res
	return out, wall, p, true
}

// check compares a pass's outcome with the first pass on the same input
// (determinism) and with the recorded digest, if any. Event counts are
// compared on untraced passes only: telemetry adds sampler ticks.
func (b *bench) check(seed int64, out outcome, traced bool) bool {
	want := []digest{}
	if prev, ok := b.first[seed]; ok {
		want = append(want, digest{prev.events, prev.digest})
	} else if !traced {
		b.first[seed] = out
	}
	if rec, ok := b.recorded[strconv.FormatInt(seed, 10)]; ok {
		want = append(want, rec)
	}
	for _, d := range want {
		if d.SHA256 != out.digest || (!traced && d.Events != out.events) {
			b.fail("input %d: output %s/%d events, want %s/%d", seed, out.digest, out.events, d.SHA256, d.Events)
			return false
		}
	}
	return true
}

// setupTimes times horizon-cut calls, cycling over the inputs, until at
// least minReps calls and minTime have passed. Each call is one attempt.
func (b *bench) setupTimes(minReps int, minTime time.Duration, traced bool) []float64 {
	var times []float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < minTime; i++ {
		seed := b.seeds[i%len(b.seeds)]
		prev := b.products[seed]
		b.attempted++
		var p *probe
		if traced {
			b.passes++
			p = &probe{tr: b.tr, pass: b.passes}
		}
		root := p.span("setup")
		_, wall, err := call(func() any { b.w.setup(seed, prev, p); return nil }, nil)
		root()
		if err != nil {
			b.fail("set-up of input %d: %v", seed, err)
			continue
		}
		times = append(times, wall.Seconds())
	}
	return times
}

// measure makes the untraced run: a warm-up pass, then passes cycling
// over the inputs until every input has one and `seconds` have passed,
// then the set-up calls. It returns the end-to-end metrics.
func (b *bench) measure(seconds time.Duration) (map[string]float64, error) {
	b.pass(b.seeds[0], false, nil)
	walls := make([][]float64, len(b.seeds))
	outs := make([]outcome, len(b.seeds))
	start := time.Now()
	for i := 0; i < len(b.seeds) || time.Since(start) < seconds; i++ {
		k := i % len(b.seeds)
		if out, wall, _, ok := b.pass(b.seeds[k], false, nil); ok {
			walls[k] = append(walls[k], wall.Seconds())
			outs[k] = out
		}
	}
	setup := b.setupTimes(setupMinReps, setupMinTime, false)
	var sumWall, sumSim float64
	var events uint64
	for k, ws := range walls {
		if len(ws) == 0 {
			return nil, fmt.Errorf("input %d: no pass succeeded", b.seeds[k])
		}
		sumWall += median(ws)
		sumSim += outs[k].simsec
		events += outs[k].events
	}
	if len(setup) == 0 {
		return nil, fmt.Errorf("no set-up call succeeded")
	}
	return map[string]float64{
		"wall_s":       sumWall / float64(len(walls)),
		"ns_per_event": sumWall * 1e9 / float64(events),
		"simsec_per_s": sumSim / sumWall,
		"setup_s":      median(setup),
		"peak_rss_mb":  peakRSSMB(),
	}, nil
}

// traced makes the traced run on the first w.traced inputs: per input an
// untraced pass, a traced pass under the CPU profiler, and (paper) a
// telemetry replay; then one traced set-up call per input and an
// allocation-profile pass over the same inputs in a fresh process.
func (b *bench) traced(toy bool) (map[string]float64, error) {
	b.tr = newTracer()
	seeds := b.seeds[:b.w.traced]
	b.pass(seeds[0], false, nil)
	var recs []runRecord
	var events, tracedEvents uint64
	var simsec, overhead float64
	b.cpuNS = map[string]int64{}
	succeeded := 0
	for i, seed := range seeds {
		type passResult struct {
			out  outcome
			wall time.Duration
			p    *probe
			ok   bool
		}
		var plain, traced passResult
		var buf bytes.Buffer
		// Alternate which pass goes first, so order effects do not
		// masquerade as tracing overhead.
		for j := range 2 {
			if (i+j)%2 == 0 {
				plain.out, plain.wall, plain.p, plain.ok = b.pass(seed, false, nil)
			} else {
				traced.out, traced.wall, traced.p, traced.ok = b.pass(seed, true, &buf)
			}
		}
		if !plain.ok || !traced.ok {
			continue
		}
		succeeded++
		prof, err := parseProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		byLayer, err := prof.attribute("cpu")
		if err != nil {
			return nil, err
		}
		for l, v := range byLayer {
			b.cpuNS[l] += v
		}
		events += plain.out.events
		simsec += plain.out.simsec
		tracedEvents += traced.out.events
		overhead += (traced.wall - plain.wall).Seconds()
		if b.w.replay != nil {
			b.attempted++
			b.passes++
			rp := &probe{tr: b.tr, pass: b.passes, metrics: true}
			end := rp.span("replay")
			_, _, err := call(func() any { recs = append(recs, b.w.replay(b.products[seed], rp)...); return nil }, nil)
			end()
			if err != nil {
				b.fail("telemetry replay of input %d: %v", seed, err)
			}
			continue
		}
		for k, r := range traced.out.runs {
			r.summary = traced.p.summaries[k]
			recs = append(recs, r)
		}
	}
	if succeeded == 0 {
		return nil, fmt.Errorf("no traced input succeeded")
	}
	b.seeds = seeds
	b.setupTimes(len(seeds), 0, true)
	alloc, err := allocPass(b.w.name, seeds, toy)
	if err != nil {
		return nil, err
	}
	if alloc.Events != events {
		b.fail("allocation pass ran %d events, want %d", alloc.Events, events)
	}
	m := simCounts(recs, events, simsec)
	for _, l := range layers {
		m[l+".self_ns_per_event"] = float64(b.cpuNS[l]) / float64(tracedEvents)
		m[l+".alloc_bytes_per_event"] = float64(alloc.Bytes[l]) / float64(events)
		m[l+".allocs_per_event"] = float64(alloc.Objects[l]) / float64(events)
	}
	m["trace.overhead_s"] = overhead / float64(succeeded)
	return m, nil
}

// layerShares returns each layer's share of the attributed values.
func layerShares(byLayer map[string]int64) map[string]float64 {
	var total int64
	for _, v := range byLayer {
		total += v
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// allocResult is what the allocation-profile process reports.
type allocResult struct {
	Events  uint64           `json:"events"`
	Bytes   map[string]int64 `json:"bytes"`
	Objects map[string]int64 `json:"objects"`
}

// allocJob is the allocation process's work, passed in childEnv.
type allocJob struct {
	Workload string  `json:"workload"`
	Seeds    []int64 `json:"seeds"`
	Toy      bool    `json:"toy"`
}

// childEnv, when set in the environment, turns the process into the
// allocation-profile pass described by its JSON value.
const childEnv = "PERFBENCH_ALLOC_JOB"

// allocProfileRate samples one allocation per this many bytes: fine
// enough for per-layer totals, coarse enough that unwinding stays cheap.
const allocProfileRate = 64 << 10

// allocPass runs the inputs again in a fresh process of this executable
// with allocation sampling on, so sampling cost never lands in the CPU
// profile, and returns its per-layer totals.
func allocPass(workload string, seeds []int64, toy bool) (allocResult, error) {
	var res allocResult
	job, err := json.Marshal(allocJob{workload, seeds, toy})
	if err != nil {
		return res, err
	}
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(job))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("allocation pass: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("allocation pass output: %w", err)
	}
	return res, nil
}

// allocChild is the allocation-profile process: it runs the job's inputs
// once each and prints the per-layer allocation totals as JSON.
func allocChild(jobJSON string) (allocResult, error) {
	var res allocResult
	var job allocJob
	if err := json.Unmarshal([]byte(jobJSON), &job); err != nil {
		return res, err
	}
	w, err := lookup(job.Workload, job.Toy)
	if err != nil {
		return res, err
	}
	for _, seed := range job.Seeds {
		out, err := w.summarize(w.pass(seed, nil))
		if err != nil {
			return res, err
		}
		res.Events += out.events
	}
	runtime.GC() // the profile reflects allocations up to the last GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return res, err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return res, err
	}
	if res.Bytes, err = prof.attribute("alloc_space"); err != nil {
		return res, err
	}
	res.Objects, err = prof.attribute("alloc_objects")
	return res, err
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
