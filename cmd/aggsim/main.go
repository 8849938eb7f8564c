// Command aggsim runs configured experiments on the aggregation MAC
// simulator. With scalar flags it runs one sim and prints throughput plus
// per-node detail; give any of -scheme, -rate, or -hops a comma-separated
// list (or set -reps > 1) and it fans the whole parameter grid across a
// worker pool, with per-run seeds derived deterministically from -seed.
//
// Examples:
//
//	aggsim -traffic tcp -scheme ba -rate 2.6 -hops 2
//	aggsim -traffic tcp -scheme dba -star -file 200000
//	aggsim -traffic udp -scheme na -rate 0.65 -hops 2 -flood 1s
//	aggsim -traffic udp -scheme ba -hops 1 -agg 8192   # past the cliff
//	aggsim -traffic tcp -scheme na,ua,ba,dba -rate 0.65,1.3,1.95,2.6 -hops 1,2,3,4
//	aggsim -traffic udp -scheme ba -rate 1.3 -hops 2 -reps 8 -csv
//
// Generated mesh topologies (-topo) run many concurrent TCP flows over a
// grid, a seeded random disk graph, or parallel chains with cross traffic:
//
//	aggsim -topo grid -nodes 100 -flows 8 -scheme ba -rate 2.6
//	aggsim -topo disk -nodes 400 -flows 33 -file 30000
//	aggsim -topo chains -chains 4 -chain-hops 4 -cross-flows 2
//
// Mesh topologies can be made mobile (-mobility): nodes roam under a
// seeded motion model, links and per-link SNR follow the distances, and
// shortest-path routes are recomputed every -move-interval:
//
//	aggsim -topo grid -mobility waypoint -speed 2 -seed 7
//	aggsim -topo disk -nodes 49 -mobility drift -speed 4 -move-interval 500ms
//
// Workload mode replaces the "N flows forever" setup with flows that
// arrive and complete over time, reporting flow-completion-time
// percentiles: -scenario runs a declarative JSON file (one run per scheme
// it lists; see examples/scenarios), while -arrival-rate (open-loop
// Poisson arrivals) or -users (closed-loop think-time users) builds an
// ad-hoc workload from a single -traffic model on the -topo mesh:
//
//	aggsim -scenario examples/scenarios/web-open.json
//	aggsim -topo grid -nodes 25 -arrival-rate 0.5 -traffic pareto -scheme na,ua,ba
//	aggsim -topo disk -users 8 -think 2s -traffic cbr -dur 20s
//
// -json emits any single, mesh or scenario run as one machine-readable
// document; -trace (optionally narrowed by -trace-nodes) streams the
// channel timeline of single, mesh and scenario runs to stderr.
//
// Sweeps and scenario runs are crash-safe with -store DIR: every completed
// cell is flushed durably as it lands, and -resume serves already-stored
// cells instead of re-running them (see README "Crash-safe sweeps");
// -retries N re-executes transient failures. Exit codes: 0 success; 1 a
// run failed (or the store/output did); 2 flag/usage error — usage errors
// never touch the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/runner"
	"aggmac/internal/store"
	"aggmac/internal/telemetry"
	// Aliased: the -traffic flag variable shadows the package name here.
	wl "aggmac/internal/traffic"
)

func parseSchemes(list string) ([]mac.Scheme, error) {
	var out []mac.Scheme
	for _, s := range strings.Split(list, ",") {
		sch, err := mac.SchemeByName(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}

func parseRates(list string) ([]phy.Rate, error) {
	var out []phy.Rate
	for _, s := range strings.Split(list, ",") {
		mbps, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", s, err)
		}
		r, err := phy.RateFromMbps(mbps)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseHops(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		h, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || h < 1 {
			return nil, fmt.Errorf("bad hop count %q", s)
		}
		out = append(out, h)
	}
	return out, nil
}

func main() {
	var (
		traffic  = flag.String("traffic", "tcp", "tcp or udp; with -arrival-rate/-users: a traffic model (bulk|cbr|poisson|onoff|pareto)")
		scheme   = flag.String("scheme", "ba", "scheme or comma list: na | ua | ba | dba")
		rateList = flag.String("rate", "1.3", "PHY data rate in Mbps (0.65|1.3|1.95|2.6|...) or comma list")
		bcRate   = flag.Float64("bcast-rate", 0, "fixed broadcast-portion rate in Mbps (0 = same as unicast)")
		hopsList = flag.String("hops", "2", "linear chain hop count or comma list")
		star     = flag.Bool("star", false, "use the 2-session star topology (TCP only, no sweep)")
		file     = flag.Int("file", core.PaperFileBytes, "TCP transfer size in bytes")
		agg      = flag.Int("agg", 5120, "maximum aggregation size in bytes")
		noFwd    = flag.Bool("no-forward-agg", false, "disable forward aggregation (Fig 14)")
		blockAck = flag.Bool("block-ack", false, "enable the block-ACK extension")
		autoAgg  = flag.Bool("auto-agg", false, "rate-adaptive aggregation size extension")
		flood    = flag.Duration("flood", 0, "flooding interval per node (UDP only; 0 = off)")
		dur      = flag.Duration("dur", 40*time.Second, "UDP measurement duration")
		seed     = flag.Int64("seed", 1, "simulation seed (sweep: base seed for per-run derivation)")
		reps     = flag.Int("reps", 1, "seed replications per sweep point (>1 forces sweep mode)")
		parallel = flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "sweep: emit the result table as JSON")
		csvOut   = flag.Bool("csv", false, "sweep: emit the result table as CSV")
		progress = flag.Bool("progress", false, "sweep: report each completed run on stderr")
		storeDir = flag.String("store", "", "durable results store directory (sweep and scenario modes); completed cells are flushed there as they land")
		resume   = flag.Bool("resume", false, "serve already-stored cells from -store instead of re-running them")
		retries  = flag.Int("retries", 0, "extra attempts for transiently failed runs (wall-budget timeouts), with capped exponential backoff")
		verbose  = flag.Bool("v", false, "print per-node detail (single run)")
		doTrace  = flag.Bool("trace", false, "stream the channel timeline to stderr (single, mesh and scenario runs)")
		traceNds = flag.String("trace-nodes", "", "with -trace: comma list of node IDs; only events touching them are traced")
		traceFmt = flag.String("trace-format", core.TraceText, "with -trace: timeline format: text | jsonl")

		metricsPath = flag.String("metrics", "", "write simulated-time telemetry series as JSONL to this file (single, mesh and scenario runs)")
		metricsIv   = flag.Duration("metrics-interval", telemetry.DefaultInterval, "with -metrics: simulated-time sampling interval")
		blockProf   = flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
		mutexProf   = flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")

		scenario = flag.String("scenario", "", "run a declarative scenario file (JSON; see examples/scenarios)")
		arrival  = flag.Float64("arrival-rate", 0, "workload: open-loop Poisson flow arrivals per second (requires -topo)")
		users    = flag.Int("users", 0, "workload: closed-loop think-time user population (requires -topo)")
		think    = flag.Duration("think", 2*time.Second, "workload: closed-loop mean think time")

		topo      = flag.String("topo", "", "mesh topology: grid | disk | chains (empty = paper chain/star)")
		nodes     = flag.Int("nodes", 25, "mesh: node budget (grid rounds down to k²)")
		flows     = flag.Int("flows", 0, "mesh: concurrent TCP flows (0 = max(2, nodes/10))")
		chains    = flag.Int("chains", 4, "mesh chains: number of parallel chains")
		chainHops = flag.Int("chain-hops", 4, "mesh chains: hops per chain")
		crossFl   = flag.Int("cross-flows", 0, "mesh chains: vertical cross-traffic flows")
		minHops   = flag.Int("min-hops", 2, "mesh grid/disk: minimum route length for sampled flows")

		mobility = flag.String("mobility", "", "mesh: mobility model: waypoint | drift (empty = static)")
		speed    = flag.Float64("speed", 1, "mesh mobility: node speed in spacing units per second")
		pause    = flag.Duration("pause", time.Second, "mesh mobility: waypoint dwell time at each target")
		moveIv   = flag.Duration("move-interval", time.Second, "mesh mobility: position/link/route update interval")

		crashMTBF  = flag.Duration("crash-mtbf", 0, "mesh faults: mean node up time between crashes (0 = no crashes)")
		crashMTTR  = flag.Duration("crash-mttr", 0, "mesh faults: mean node repair time (default 10s when crashes are on)")
		flapRate   = flag.Float64("flap-rate", 0, "mesh faults: per-link flap rate in flaps per second (0 = no flapping)")
		flapDown   = flag.Duration("flap-down", 0, "mesh faults: mean link down time per flap (default 2s)")
		partitions = flag.String("partition", "", "mesh faults: comma list of start:dur:axis:at area partitions (e.g. 100s:30s:x:2.5)")
		snrBurst   = flag.Duration("snr-burst", 0, "mesh faults: mean time between SNR-degradation bursts (0 = off)")
		snrBurstDB = flag.Float64("snr-burst-db", 0, "mesh faults: per-endpoint SNR penalty in dB during a burst (default 10)")
	)
	flag.Parse()

	schemes, err := parseSchemes(*scheme)
	if err != nil {
		fatal(err)
	}
	rates, err := parseRates(*rateList)
	if err != nil {
		fatal(err)
	}
	hops, err := parseHops(*hopsList)
	if err != nil {
		fatal(err)
	}
	if *jsonOut && *csvOut {
		fatal(fmt.Errorf("-json and -csv are mutually exclusive"))
	}
	if *resume && *storeDir == "" {
		fatal(fmt.Errorf("-resume requires -store"))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("-retries must be >= 0"))
	}
	if *storeDir != "" && *doTrace {
		fatal(fmt.Errorf("-store cannot cache traced runs (drop -trace)"))
	}
	traceNodes, err := parseTraceNodes(*traceNds)
	if err != nil {
		fatal(err)
	}
	switch *traceFmt {
	case core.TraceText, core.TraceJSONL:
	default:
		fatal(fmt.Errorf("unknown -trace-format %q (text|jsonl)", *traceFmt))
	}
	if *traceFmt != core.TraceText && !*doTrace {
		fatal(fmt.Errorf("-trace-format requires -trace"))
	}
	var traceTo io.Writer
	if *doTrace {
		traceTo = os.Stderr
	}
	if *metricsIv <= 0 {
		fatal(fmt.Errorf("-metrics-interval must be positive"))
	}
	if *metricsPath != "" && *storeDir != "" {
		// The store caches a run's declared config; a telemetry recorder is
		// side output the cache could neither replay nor invalidate on.
		fatal(fmt.Errorf("-metrics cannot be combined with -store"))
	}
	// The mobility flags also feed ad-hoc workloads, and -move-interval
	// paces fault injection too, so reject bad values wherever they land.
	if *speed < 0 || *pause < 0 {
		fatal(fmt.Errorf("-speed and -pause must not be negative"))
	}
	if *moveIv <= 0 {
		fatal(fmt.Errorf("-move-interval must be positive"))
	}
	faultCfg, err := faultConfig(*crashMTBF, *crashMTTR, *flapRate, *flapDown, *partitions, *snrBurst, *snrBurstDB)
	if err != nil {
		fatal(err)
	}

	if *blockProf != "" {
		runtime.SetBlockProfileRate(1)
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
	}
	defer writeProfile("block", *blockProf)
	defer writeProfile("mutex", *mutexProf)

	// Scenario-file mode: everything (topology, traffic, schemes) comes
	// from the file; -seed (when given explicitly), -parallel, -json,
	// -progress, -v and the trace flags still apply.
	if *scenario != "" {
		if faultCfg != nil {
			fatal(fmt.Errorf("fault flags apply to -topo mesh runs only; scenario files declare faults in their own \"faults\" section"))
		}
		sc, err := wl.Load(*scenario)
		if err != nil {
			fatal(err)
		}
		var schemes []mac.Scheme
		for _, name := range sc.Schemes {
			s, err := mac.SchemeByName(name)
			if err != nil {
				fatal(err)
			}
			schemes = append(schemes, s)
		}
		var seedOverride int64
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = *seed
			}
		})
		runScenarios(scenarioArgs{
			sc: sc, schemes: schemes, seed: seedOverride,
			parallel: *parallel, jsonOut: *jsonOut, progress: *progress,
			verbose: *verbose, traceTo: traceTo, traceNodes: traceNodes,
			traceFormat: *traceFmt, metrics: *metricsPath, metricsIv: *metricsIv,
			st: openStore(*storeDir), resume: *resume, retries: *retries,
		})
		return
	}

	// Ad-hoc workload mode: -arrival-rate / -users turn the -topo mesh
	// into an open- or closed-loop scenario with a single-model mix.
	if *arrival > 0 || *users > 0 {
		if *topo == "" {
			fatal(fmt.Errorf("-arrival-rate/-users need a mesh topology (-topo grid|disk|chains)"))
		}
		if *csvOut {
			fatal(fmt.Errorf("-csv is not supported in workload mode"))
		}
		if len(rates) > 1 || len(hops) > 1 || *reps > 1 {
			fatal(fmt.Errorf("workload mode cannot be combined with a -rate/-hops/-reps sweep"))
		}
		// Mesh-only knobs the workload engine does not thread through must
		// fail loudly, not silently measure something else.
		if *flows != 0 || *crossFl != 0 {
			fatal(fmt.Errorf("-flows/-cross-flows do not apply in workload mode (the engine samples its own flows)"))
		}
		if faultCfg != nil {
			fatal(fmt.Errorf("fault flags apply to -topo mesh runs only, not workload mode"))
		}
		model := *traffic
		if model == "tcp" {
			model = wl.Pareto // web-like objects by default
		}
		ma := meshArgs{
			topo: *topo, rate: rates[0],
			nodes: *nodes, chains: *chains, chainHops: *chainHops,
			minHops: *minHops, mobility: *mobility, speed: *speed,
			pause: *pause, moveIv: *moveIv,
			file: *file, agg: *agg, seed: *seed,
		}
		sc, err := adhocScenario(ma, model, *arrival, *users, *think, *dur, schemes)
		if err != nil {
			fatal(err)
		}
		runScenarios(scenarioArgs{
			sc: sc, schemes: schemes,
			parallel: *parallel, jsonOut: *jsonOut, progress: *progress,
			verbose: *verbose, traceTo: traceTo, traceNodes: traceNodes,
			traceFormat: *traceFmt, metrics: *metricsPath, metricsIv: *metricsIv,
			st: openStore(*storeDir), resume: *resume, retries: *retries,
		})
		return
	}

	if *traffic != "tcp" && *traffic != "udp" {
		fatal(fmt.Errorf("unknown traffic %q (tcp|udp; traffic models need -arrival-rate or -users)", *traffic))
	}

	switch *mobility {
	case "", core.MobilityWaypoint, core.MobilityDrift:
	default:
		fatal(fmt.Errorf("unknown -mobility %q (waypoint|drift)", *mobility))
	}
	if *mobility != "" && *topo == "" {
		fatal(fmt.Errorf("-mobility requires a mesh topology (-topo grid|disk|chains)"))
	}

	if *topo != "" {
		switch *topo {
		case core.MeshGrid, core.MeshDisk, core.MeshChains:
		default:
			fatal(fmt.Errorf("unknown -topo %q (grid|disk|chains)", *topo))
		}
		if *traffic != "tcp" {
			fatal(fmt.Errorf("-topo supports TCP traffic only"))
		}
		// Chains size themselves from -chains/-chain-hops and ignore -nodes.
		if *topo != core.MeshChains && *nodes < 4 {
			fatal(fmt.Errorf("-topo %s needs -nodes >= 4, got %d", *topo, *nodes))
		}
		if len(schemes) > 1 || len(rates) > 1 || len(hops) > 1 || *reps > 1 {
			fatal(fmt.Errorf("-topo cannot be combined with a parameter sweep"))
		}
		if *csvOut {
			fatal(fmt.Errorf("-csv is not supported in -topo mode"))
		}
		if *storeDir != "" {
			fatal(fmt.Errorf("-store applies to sweeps and scenario runs, not single mesh runs"))
		}
		runMesh(meshArgs{
			topo: *topo, scheme: schemes[0], rate: rates[0],
			nodes: *nodes, flows: *flows, chains: *chains, chainHops: *chainHops,
			crossFlows: *crossFl, minHops: *minHops,
			mobility: *mobility, speed: *speed, pause: *pause, moveIv: *moveIv,
			faults: faultCfg,
			file:   *file, agg: *agg, seed: *seed, verbose: *verbose,
			jsonOut: *jsonOut, traceTo: traceTo, traceNodes: traceNodes,
			traceFormat: *traceFmt, metrics: *metricsPath, metricsIv: *metricsIv,
		})
		return
	}
	if faultCfg != nil {
		fatal(fmt.Errorf("fault flags apply to -topo mesh runs only"))
	}

	if len(schemes)*len(rates)*len(hops) > 1 || *reps > 1 {
		if *star {
			fatal(fmt.Errorf("-star cannot be combined with a parameter sweep"))
		}
		if *metricsPath != "" {
			fatal(fmt.Errorf("-metrics applies to single, mesh and scenario runs, not sweeps"))
		}
		var fixedBC *phy.Rate
		if *bcRate > 0 {
			br, err := phy.RateFromMbps(*bcRate)
			if err != nil {
				fatal(err)
			}
			fixedBC = &br
		}
		runSweep(sweepArgs{
			traffic: *traffic, schemes: schemes, rates: rates, hops: hops,
			reps: *reps, seed: *seed, agg: *agg, file: *file, dur: *dur,
			flood: *flood, parallel: *parallel,
			noFwd: *noFwd, blockAck: *blockAck, autoAgg: *autoAgg, bcRate: fixedBC,
			jsonOut: *jsonOut, csvOut: *csvOut, progress: *progress,
			st: openStore(*storeDir), resume: *resume, retries: *retries,
		})
		return
	}

	if *csvOut {
		fatal(fmt.Errorf("-csv requires a parameter sweep (comma-list -scheme/-rate/-hops or -reps > 1)"))
	}
	if *storeDir != "" {
		fatal(fmt.Errorf("-store applies to sweeps and scenario runs, not single runs"))
	}
	runSingle(singleArgs{
		traffic: *traffic, scheme: schemes[0], rate: rates[0], hops: hops[0],
		star: *star, file: *file, agg: *agg, noFwd: *noFwd,
		blockAck: *blockAck, autoAgg: *autoAgg, flood: *flood, dur: *dur,
		seed: *seed, bcRate: *bcRate, verbose: *verbose,
		jsonOut: *jsonOut, traceTo: traceTo, traceNodes: traceNodes,
		traceFormat: *traceFmt, metrics: *metricsPath, metricsIv: *metricsIv,
	})
}

// writeProfile writes the named runtime profile (block, mutex) at exit; an
// empty path is a no-op. Profiles are best-effort diagnostics: a write
// failure warns on stderr without changing the exit code.
func writeProfile(name, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggsim:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "aggsim:", err)
	}
}

// fatal reports a flag/validation error and exits with the usage code (2).
// Usage errors never create, lock or mutate the results store.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggsim:", err)
	os.Exit(2)
}

// runFail reports a failed or aborted run (sim error, store or output I/O)
// and exits with the run-failure code (1), distinct from usage errors so
// scripts can tell "retry this" from "fix the invocation".
func runFail(err error) {
	fmt.Fprintln(os.Stderr, "aggsim:", err)
	os.Exit(1)
}

// openStore opens (creating if needed) the durable results store. It must
// only be called after every flag validation has passed: usage errors must
// not touch the store. A nil return means no -store was given.
func openStore(dir string) *store.Store {
	if dir == "" {
		return nil
	}
	st, err := store.Open(dir)
	if err != nil {
		runFail(err)
	}
	return st
}

type sweepArgs struct {
	traffic           string
	schemes           []mac.Scheme
	rates             []phy.Rate
	hops              []int
	reps              int
	seed              int64
	agg, file         int
	dur, flood        time.Duration
	parallel          int
	noFwd             bool
	blockAck, autoAgg bool
	bcRate            *phy.Rate
	jsonOut, csvOut   bool
	progress          bool
	st                *store.Store
	resume            bool
	retries           int
}

func runSweep(a sweepArgs) {
	sw := runner.Sweep{
		Traffic: a.traffic, Schemes: a.schemes, Rates: a.rates, Hops: a.hops,
		Reps: a.reps, BaseSeed: a.seed,
		MaxAggBytes: a.agg, FileBytes: a.file,
		Duration: a.dur, FloodInterval: a.flood,
		NoForwardAgg: a.noFwd, BlockAck: a.blockAck, AutoAggSize: a.autoAgg,
		FixedBroadcastRate: a.bcRate,
	}
	specs := sw.Specs()
	pool := runner.Pool{Workers: a.parallel,
		Retry: runner.RetryPolicy{MaxAttempts: a.retries + 1}}
	if a.progress {
		pool.OnResult = runner.StderrProgress
	}
	var cached, executed, retried int
	if a.st != nil {
		pool.Cache = a.st
		pool.Resume = a.resume
		// OnResult calls are serialized by the pool, so plain counters are
		// safe; chain the user's -progress reporter behind the counting.
		user := pool.OnResult
		pool.OnResult = func(p runner.Progress) {
			if p.Cached {
				cached++
			} else {
				executed++
				if p.Attempts > 1 {
					retried++
				}
			}
			if user != nil {
				user(p)
			}
		}
	}
	start := time.Now()
	results, err := pool.Run(context.Background(), specs)
	if err != nil {
		runFail(err)
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "aggsim: run %s failed: %v\n", r.Key, r.Err)
		}
	}
	tab := experiments.SweepTable(sw, results)
	switch {
	case a.jsonOut:
		if err := experiments.WriteJSON(os.Stdout, []experiments.Table{tab}); err != nil {
			runFail(err)
		}
	case a.csvOut:
		if err := experiments.WriteCSV(os.Stdout, []experiments.Table{tab}); err != nil {
			runFail(err)
		}
	default:
		fmt.Print(tab.Format())
		fmt.Printf("swept %d run(s) in %v (wall clock)\n", len(specs), time.Since(start).Round(time.Millisecond))
	}
	if a.st != nil {
		storeSummary(a.st, cached, executed, retried)
		a.st.Close()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "aggsim: %d of %d runs failed\n", failed, len(specs))
		os.Exit(1)
	}
}

// storeSummary prints the resume accounting on stderr (stdout stays
// byte-identical with and without a warm store; CI's resume gate relies on
// that).
func storeSummary(st *store.Store, cached, executed, retried int) {
	fmt.Fprintf(os.Stderr, "aggsim: store %s: %d cell(s) cached, %d executed, %d retried\n",
		st.Dir(), cached, executed, retried)
	if c := st.Stats().Corrupt; c > 0 {
		fmt.Fprintf(os.Stderr, "aggsim: store: quarantined %d corrupt object(s)\n", c)
	}
}

type singleArgs struct {
	traffic           string
	scheme            mac.Scheme
	rate              phy.Rate
	hops              int
	star              bool
	file, agg         int
	noFwd             bool
	blockAck, autoAgg bool
	flood, dur        time.Duration
	seed              int64
	bcRate            float64
	verbose           bool
	jsonOut           bool
	traceTo           io.Writer
	traceNodes        []int
	traceFormat       string
	metrics           string
	metricsIv         time.Duration
}

// recorder builds the telemetry recorder for a -metrics run; nil (metrics
// off) keeps every instrumented run byte-identical to an uninstrumented one.
func recorder(path string, interval time.Duration) *telemetry.Recorder {
	if path == "" {
		return nil
	}
	return telemetry.NewRecorder(interval)
}

// writeMetrics flushes the recorder's sampled series as JSONL; a nil
// recorder is a no-op. Output I/O failures are run failures (exit 1).
func writeMetrics(rec *telemetry.Recorder, path string) {
	if rec == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		runFail(err)
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		runFail(err)
	}
	if err := f.Close(); err != nil {
		runFail(err)
	}
	fmt.Fprintf(os.Stderr, "aggsim: telemetry written to %s\n", path)
}

func runSingle(a singleArgs) {
	sch := a.scheme
	sch.DisableForwardAggregation = a.noFwd
	rec := recorder(a.metrics, a.metricsIv)

	switch a.traffic {
	case "tcp":
		cfg := core.TCPConfig{
			Scheme: sch, Rate: a.rate, Hops: a.hops, Star: a.star,
			FileBytes: a.file, MaxAggBytes: a.agg, Seed: a.seed,
			BlockAck: a.blockAck, AutoAggSize: a.autoAgg,
			TraceTo: a.traceTo, TraceNodes: a.traceNodes,
			TraceFormat: a.traceFormat, Metrics: rec,
		}
		if a.bcRate > 0 {
			br, err := phy.RateFromMbps(a.bcRate)
			if err != nil {
				fatal(err)
			}
			cfg.FixedBroadcastRate = &br
		}
		res := core.RunTCP(cfg)
		writeMetrics(rec, a.metrics)
		if a.jsonOut {
			writeJSON(jsonResult{Kind: "tcp", TCP: &res, Telemetry: rec.Summary()})
			return
		}
		fmt.Printf("scheme=%s rate=%v topology=%s\n", sch.Name(), a.rate, topoName(a.hops, a.star))
		for i, m := range res.SessionMbps {
			fmt.Printf("session %d: %.3f Mbps (done=%v)\n", i, m, res.Sessions[i].Done)
		}
		fmt.Printf("end-to-end throughput: %.3f Mbps (worst session), elapsed %v\n",
			res.ThroughputMbps, res.Elapsed.Round(time.Millisecond))
		if !res.Completed {
			fmt.Println("WARNING: not all sessions completed before the deadline")
		}
		if a.verbose {
			printNodes(res.Nodes)
			for i, s := range res.Sessions {
				fmt.Printf("session %d sender: sent=%d rtx=%d fastRtx=%d timeouts=%d\n",
					i, s.Sender.SegsSent, s.Sender.Retransmits, s.Sender.FastRetransmits, s.Sender.Timeouts)
			}
		}
	case "udp":
		res := core.RunUDP(core.UDPConfig{
			Scheme: sch, Rate: a.rate, Hops: a.hops, MaxAggBytes: a.agg,
			FloodInterval: a.flood, Duration: a.dur, Seed: a.seed,
			TraceTo: a.traceTo, TraceNodes: a.traceNodes,
			TraceFormat: a.traceFormat, Metrics: rec,
		})
		writeMetrics(rec, a.metrics)
		if a.jsonOut {
			writeJSON(jsonResult{Kind: "udp", UDP: &res, Telemetry: rec.Summary()})
			return
		}
		fmt.Printf("scheme=%s rate=%v hops=%d flood=%v\n", sch.Name(), a.rate, a.hops, a.flood)
		fmt.Printf("goodput: %.3f Mbps (%d packets delivered)\n", res.ThroughputMbps, res.SinkPackets)
		if a.flood > 0 {
			fmt.Printf("flooding: %d sent, %d received\n", res.FloodsSent, res.FloodsRcvd)
		}
		if a.verbose {
			printNodes(res.Nodes)
		}
	}
}

type meshArgs struct {
	topo              string
	scheme            mac.Scheme
	rate              phy.Rate
	nodes, flows      int
	chains, chainHops int
	crossFlows        int
	minHops           int
	mobility          string
	speed             float64
	pause, moveIv     time.Duration
	faults            *faults.Config
	file, agg         int
	seed              int64
	verbose           bool
	jsonOut           bool
	traceTo           io.Writer
	traceNodes        []int
	traceFormat       string
	metrics           string
	metricsIv         time.Duration
}

// faultConfig assembles the fault-injection config from the CLI flags; it
// returns nil when no fault flag was set.
func faultConfig(crashMTBF, crashMTTR time.Duration, flapRate float64, flapDown time.Duration,
	partitions string, snrBurst time.Duration, snrBurstDB float64) (*faults.Config, error) {
	// Negative values would read as "disabled" through Config.Enabled;
	// reject them loudly instead of silently running fault-free.
	if crashMTBF < 0 || crashMTTR < 0 || flapRate < 0 || flapDown < 0 || snrBurst < 0 || snrBurstDB < 0 {
		return nil, fmt.Errorf("fault flags must not be negative")
	}
	cfg := &faults.Config{
		CrashMTBF: crashMTBF, CrashMTTR: crashMTTR,
		FlapMTTR:     flapDown,
		SNRBurstMTBF: snrBurst, SNRBurstDB: snrBurstDB,
	}
	if flapRate > 0 {
		cfg.FlapMTBF = time.Duration(float64(time.Second) / flapRate)
	}
	if partitions != "" {
		for _, spec := range strings.Split(partitions, ",") {
			parts := strings.Split(strings.TrimSpace(spec), ":")
			if len(parts) != 4 {
				return nil, fmt.Errorf("bad -partition %q (want start:dur:axis:at, e.g. 100s:30s:x:2.5)", spec)
			}
			start, err := time.ParseDuration(parts[0])
			if err != nil {
				return nil, fmt.Errorf("bad -partition start %q: %v", parts[0], err)
			}
			dur, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("bad -partition duration %q: %v", parts[1], err)
			}
			at, err := strconv.ParseFloat(parts[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad -partition coordinate %q: %v", parts[3], err)
			}
			cfg.Partitions = append(cfg.Partitions, faults.Partition{
				Start: start, Duration: dur, Axis: parts[2], At: at,
			})
		}
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func runMesh(a meshArgs) {
	rec := recorder(a.metrics, a.metricsIv)
	cfg := core.MeshTCPConfig{
		Scheme: a.scheme, Rate: a.rate,
		Topology: a.topo, Nodes: a.nodes, Flows: a.flows,
		Chains: a.chains, ChainHops: a.chainHops, CrossFlows: a.crossFlows,
		MinHops:  a.minHops,
		Mobility: a.mobility, Speed: a.speed, Pause: a.pause, MoveInterval: a.moveIv,
		Faults:    a.faults,
		FileBytes: a.file, MaxAggBytes: a.agg, Seed: a.seed,
		TraceTo: a.traceTo, TraceNodes: a.traceNodes,
		TraceFormat: a.traceFormat, Metrics: rec,
	}
	res := core.RunMeshTCP(cfg)
	writeMetrics(rec, a.metrics)
	if a.jsonOut {
		writeJSON(jsonResult{Kind: "mesh", Mesh: &res, Telemetry: rec.Summary()})
		return
	}
	fmt.Printf("scheme=%s rate=%v topology=%s nodes=%d links=%d avg-degree=%.1f\n",
		a.scheme.Name(), a.rate, a.topo, res.NodeCount, res.LinkCount, res.AvgDegree)
	if a.mobility != "" {
		fmt.Printf("mobility=%s speed=%g interval=%v: %d link ups, %d link downs, %d route flaps over %d recomputes\n",
			a.mobility, a.speed, a.moveIv,
			res.LinkUps, res.LinkDowns, res.RouteFlaps, res.RouteRecomputes)
	}
	if a.faults != nil {
		fmt.Printf("faults: %d crashes (%d recovered), %d flap downs (%d restored), %d/%d partitions healed, %d SNR bursts\n",
			res.NodeCrashes, res.NodeRecoveries, res.FaultLinkDowns, res.FaultLinkUps,
			res.PartitionsHealed, res.PartitionsStarted, res.SNRBursts)
		fmt.Printf("degradation: availability %.4f, %d flows killed, max stall %v, mean stall %v, heal latency %v\n",
			res.Availability, res.FlowsKilledByFault,
			res.MaxFlowStall.Round(time.Millisecond), res.MeanFlowStall.Round(time.Millisecond),
			res.MeanHealLatency.Round(time.Millisecond))
	}
	for i, f := range res.Flows {
		fmt.Printf("flow %d: %d->%d (%d hops) %.3f Mbps (done=%v)\n",
			i, int(f.Server), int(f.Client), f.Hops, f.Mbps, f.Done)
	}
	fmt.Printf("aggregate %.3f Mbps across %d flows (min %.3f, mean %.3f), %d/%d done, elapsed %v\n",
		res.AggregateMbps, len(res.Flows), res.MinMbps, res.MeanMbps,
		res.FlowsDone, len(res.Flows), res.Elapsed.Round(time.Millisecond))
	if !res.Completed {
		fmt.Println("WARNING: not all flows completed before the deadline")
	}
	if a.verbose {
		printNodes(res.Nodes)
	}
}

func topoName(hops int, star bool) string {
	if star {
		return "star (2 sessions via centre)"
	}
	return fmt.Sprintf("%d-hop chain", hops)
}

func printNodes(nodes []core.NodeReport) {
	fmt.Printf("%-3s %-7s %7s %9s %7s %7s %8s %8s %7s\n",
		"id", "role", "dataTx", "avgFrameB", "subAvg", "retries", "sizeOv%", "timeOv%", "qDrops")
	for _, n := range nodes {
		fmt.Printf("%-3d %-7s %7d %9.0f %7.2f %7d %8.2f %8.2f %7d\n",
			n.ID, n.Role, n.MAC.DataTx, n.MAC.AvgFrameBytes(), n.MAC.AvgSubframes(),
			n.MAC.Retries, 100*n.MAC.SizeOverhead(n.PreambleBytes),
			100*n.MAC.TimeOverhead(), n.MAC.QueueDrops)
	}
}
