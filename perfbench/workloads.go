package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/mac"
	"aggmac/internal/runner"
	"aggmac/internal/telemetry"
	"aggmac/internal/traffic"
)

// workload is one fixed set of simulator inputs. A run of the benchmark
// derives `inputs` simulation seeds from its --seed and times passes over
// them; the traced run profiles the first `traced` of them.
type workload struct {
	name   string
	inputs int
	traced int
	// pass makes one pass on the input with the given simulation seed
	// through the public entry points and returns what it produced.
	pass func(seed int64, p *probe) any
	// summarize checks a pass's product and reduces it to an outcome.
	summarize func(res any) (outcome, error)
	// setup makes the same entry-point calls as a pass with the simulated
	// horizon cut to its minimum, so only the worlds get built. prev is
	// the product of an earlier pass on the same input.
	setup func(seed int64, prev any, p *probe)
	// replay, when set, re-runs a pass's simulations with telemetry on
	// (paper: the experiments functions take no recorder) and returns
	// their run records.
	replay func(prev any, p *probe) []runRecord
}

// outcome is what a checked pass reduces to.
type outcome struct {
	digest string  // SHA-256 of the pass's result, EventsRun left out
	events uint64  // sum of EventsRun over the pass's simulations
	simsec float64 // simulated seconds covered by those simulations
	runs   []runRecord
}

// runRecord is one simulation's contribution to the simulated counts.
type runRecord struct {
	nodes       []core.NodeReport
	flows, done int
	events      uint64
	simsec      float64
	summary     *telemetry.Summary // set on traced runs only
}

// Workload sizes. mesh-1600 is the largest scaling cell below the
// sparse-route threshold (2048), so set-up still builds all-pairs routes;
// webWindow gives a web-churn pass about as much host time as the others.
const (
	meshNodes = 1600
	webNodes  = 100
	webWindow = 400.0 // simulated seconds of flow arrivals
	webRate   = 1.0   // flow arrivals per simulated second
)

// paperNames are the paper's Figures 7–14 and Tables 2–8; the toy
// variant keeps three short TCP tables.
var (
	paperNames = []string{"fig7", "table2", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "table3", "table4", "table5", "table8"}
	toyPaperNames = []string{"table3", "table4", "table8"}
)

func experimentsNamed(names []string) []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		if slices.Contains(names, e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// lookup returns the named workload; toy selects the small variant the
// benchmark's tests run through the same code.
func lookup(name string, toy bool) (*workload, error) {
	switch name {
	case "paper":
		names := paperNames
		if toy {
			names = toyPaperNames
		}
		exps := experimentsNamed(names)
		return &workload{name: name, inputs: 4, traced: 2,
			pass: paperPass(exps), summarize: paperSummary(len(exps)),
			setup: paperSetup, replay: paperReplay}, nil
	case "mesh-1600":
		n, k, t := meshNodes, 8, 3
		if toy {
			n, k, t = 64, 2, 1
		}
		return &workload{name: name, inputs: k, traced: t,
			pass: meshPass(n, false), summarize: meshSummary,
			setup: func(seed int64, _ any, p *probe) { meshPass(n, true)(seed, p) }}, nil
	case "web-churn":
		nodes, window, k, t := webNodes, webWindow, 10, 4
		if toy {
			nodes, window, k, t = 16, 20, 2, 1
		}
		return &workload{name: name, inputs: k, traced: t,
			pass: webPass(nodes, window, false), summarize: webSummary,
			setup: func(seed int64, _ any, p *probe) { webPass(nodes, window, true)(seed, p) }}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (paper, mesh-1600, web-churn)", name)
}

// inputSeeds derives a run's simulation seeds from the benchmark seed
// (splitmix64), so every benchmark seed names a distinct, fixed input set.
func inputSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z>>33) + 1
	}
	return out
}

// capture is a runner.Cache that never hits and keeps every run the
// experiments execute, so a paper pass can count events and replay runs.
type capture struct {
	specs   []runner.Spec
	results []runner.Result
}

func (c *capture) Lookup(runner.Spec) (runner.Result, bool, error) {
	return runner.Result{}, false, nil
}

func (c *capture) Store(s runner.Spec, r runner.Result) error {
	c.specs = append(c.specs, s)
	c.results = append(c.results, r)
	return nil
}

type paperResult struct {
	tables []experiments.Table
	runs   capture
}

func paperPass(exps []experiments.Experiment) func(int64, *probe) any {
	return func(seed int64, p *probe) any {
		res := &paperResult{}
		for _, e := range exps {
			done := p.span("experiments." + e.Name)
			res.tables = append(res.tables, e.Run(experiments.Options{Seed: seed, Workers: 1, Cache: &res.runs}))
			done()
		}
		return res
	}
}

func paperSummary(want int) func(any) (outcome, error) {
	return func(raw any) (outcome, error) {
		res := raw.(*paperResult)
		var out outcome
		if len(res.tables) != want {
			return out, fmt.Errorf("%d tables, want %d", len(res.tables), want)
		}
		for _, t := range res.tables {
			if len(t.Rows) == 0 {
				return out, fmt.Errorf("%s has no rows", t.ID)
			}
		}
		h := sha256.New()
		if err := experiments.WriteJSON(h, res.tables); err != nil {
			return out, err
		}
		out.digest = hex.EncodeToString(h.Sum(nil))
		for i, r := range res.runs.results {
			rec, err := paperRecord(res.runs.specs[i], r)
			if err != nil {
				return out, err
			}
			out.add(rec)
		}
		return out, nil
	}
}

// paperRecord reduces one experiments run to its record.
func paperRecord(s runner.Spec, r runner.Result) (runRecord, error) {
	switch {
	case r.Err != nil:
		return runRecord{}, fmt.Errorf("%s: %w", r.Key, r.Err)
	case r.TCP != nil:
		rec := runRecord{nodes: r.TCP.Nodes, events: r.TCP.EventsRun, simsec: r.TCP.Elapsed.Seconds()}
		if !r.TCP.Completed {
			rec.simsec = tcpDeadline(*s.TCP).Seconds()
		}
		for _, ss := range r.TCP.Sessions {
			rec.flows++
			if ss.Done {
				rec.done++
			}
		}
		return rec, nil
	case r.UDP != nil:
		d := s.UDP.Duration
		if d == 0 {
			d = 60 * time.Second // core.RunUDP's default
		}
		return runRecord{nodes: r.UDP.Nodes, events: r.UDP.EventsRun, simsec: d.Seconds()}, nil
	}
	return runRecord{}, fmt.Errorf("%s: unexpected run kind", r.Key)
}

func tcpDeadline(c core.TCPConfig) time.Duration {
	if c.Deadline == 0 {
		return 1200 * time.Second // core.RunTCP's default
	}
	return c.Deadline
}

// runSpec runs one captured experiments spec directly through its core
// entry point, optionally with the horizon cut to 1 ns.
func runSpec(s runner.Spec, cut bool, p *probe) runner.Result {
	rec, done := p.recorder()
	defer done()
	switch {
	case s.TCP != nil:
		cfg := *s.TCP
		cfg.Metrics = rec
		if cut {
			cfg.Deadline = 1
		}
		r := core.RunTCP(cfg)
		return runner.Result{Key: s.Key, TCP: &r}
	case s.UDP != nil:
		cfg := *s.UDP
		cfg.Metrics = rec
		if cut {
			cfg.Duration, cfg.Warmup = 1, 1
		}
		r := core.RunUDP(cfg)
		return runner.Result{Key: s.Key, UDP: &r}
	}
	panic(fmt.Sprintf("perfbench: spec %s is neither TCP nor UDP", s.Key))
}

// paperSetup builds every world of an earlier pass's run matrix without
// simulating: the experiments functions have no horizon knob, so their
// runs go through core.RunTCP/RunUDP with the horizon cut.
func paperSetup(_ int64, prev any, p *probe) {
	for _, s := range prev.(*paperResult).runs.specs {
		done := p.span("setup." + s.Key)
		runSpec(s, true, p)
		done()
	}
}

func paperReplay(prev any, p *probe) []runRecord {
	var recs []runRecord
	for i, s := range prev.(*paperResult).runs.specs {
		done := p.span("replay." + s.Key)
		r := runSpec(s, false, p)
		done()
		rec, err := paperRecord(s, r)
		if err != nil {
			panic(err)
		}
		rec.summary = p.summaries[i]
		recs = append(recs, rec)
	}
	return recs
}

func meshPass(n int, cut bool) func(int64, *probe) any {
	return func(seed int64, p *probe) any {
		cfg := experiments.ScalingCell(core.MeshGrid, mac.BA, n, seed)
		name := "core.RunMeshTCP"
		if cut {
			cfg.Deadline = 1
			name = "setup." + name
		}
		done := p.span(name)
		defer done()
		rec, stop := p.recorder()
		defer stop()
		cfg.Metrics = rec
		return meshRun{core.RunMeshTCP(cfg), cfg.Deadline}
	}
}

type meshRun struct {
	res      core.MeshResult
	deadline time.Duration
}

func meshSummary(raw any) (outcome, error) {
	m := raw.(meshRun)
	var out outcome
	if m.res.EventsRun == 0 || m.res.FlowsDone == 0 {
		return out, fmt.Errorf("mesh run finished %d flows in %d events", m.res.FlowsDone, m.res.EventsRun)
	}
	simsec := m.deadline.Seconds()
	if m.res.Completed {
		simsec = m.res.Elapsed.Seconds()
	}
	out.add(runRecord{nodes: m.res.Nodes, flows: len(m.res.Flows), done: m.res.FlowsDone,
		events: m.res.EventsRun, simsec: simsec})
	// EventsRun is recorded on its own: a traced run adds sampler ticks.
	res := m.res
	res.EventsRun = 0
	return out, out.digestJSON(res)
}

// webScenario is the web-churn input: the offered-load experiment's
// open-loop web mix (Pareto 12 KB ×3, bulk 60 KB ×1) on a bigger grid.
func webScenario(nodes int, window float64) traffic.Scenario {
	sc := experiments.LoadScenario(traffic.ModeOpen, webRate, 0, false)
	sc.Topology.Nodes = nodes
	sc.DurationS, sc.DeadlineS = window, 4*window
	return sc
}

func webPass(nodes int, window float64, cut bool) func(int64, *probe) any {
	return func(seed int64, p *probe) any {
		sc := webScenario(nodes, window)
		name := "core.RunScenario"
		if cut {
			sc.DurationS, sc.DeadlineS = 1e-9, 1e-9
			name = "setup." + name
		}
		done := p.span(name)
		defer done()
		rec, stop := p.recorder()
		defer stop()
		return core.RunScenario(core.ScenarioConfig{Scenario: sc, Scheme: mac.BA, Seed: seed, Metrics: rec})
	}
}

func webSummary(raw any) (outcome, error) {
	r := raw.(core.ScenarioResult)
	var out outcome
	if r.EventsRun == 0 || r.FlowsCompleted == 0 {
		return out, fmt.Errorf("scenario finished %d flows in %d events", r.FlowsCompleted, r.EventsRun)
	}
	out.add(runRecord{nodes: r.Nodes, flows: r.FlowsStarted, done: r.FlowsCompleted,
		events: r.EventsRun, simsec: r.Elapsed.Seconds()})
	r.EventsRun = 0 // recorded on its own: a traced run adds sampler ticks
	return out, out.digestJSON(r)
}

func (o *outcome) add(r runRecord) {
	o.runs = append(o.runs, r)
	o.events += r.events
	o.simsec += r.simsec
}

func (o *outcome) digestJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(b)
	o.digest = hex.EncodeToString(sum[:])
	return nil
}
