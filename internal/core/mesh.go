// Mesh experiments: many concurrent TCP flows over generated
// multi-collision-domain topologies (grid, random disk graph, parallel
// chains with cross traffic). This is the scenario family the paper's
// 9-node testbed could not reach and the neighbor-indexed medium exists
// for: per-transmission cost tracks node degree, so networks of hundreds
// of nodes simulate at the same per-event speed as the paper's chains.
//
// With Mobility set the topology itself becomes a function of time: a
// seeded motion model moves the nodes, links come and go with distance
// through the medium's incremental connectivity paths, and shortest-path
// routes are recomputed periodically with route-flap accounting — the
// regime where hidden-terminal and aggregate-length effects change
// character (Sharon's aggregation-scheduling work over rapidly varying
// channels, and TCP-over-mesh fragility generally).
package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/telemetry"
	"aggmac/internal/topology"
)

// Mesh topology kinds.
const (
	MeshGrid   = "grid"   // k×k grid, unit spacing
	MeshDisk   = "disk"   // seeded uniform placement, disk connectivity
	MeshChains = "chains" // parallel linear chains, optional cross traffic
)

// Mobility model names, re-exported from internal/topology.
const (
	MobilityWaypoint = topology.MobilityWaypoint
	MobilityDrift    = topology.MobilityDrift
)

// MeshTCPConfig describes a many-flow TCP experiment on a generated mesh.
type MeshTCPConfig struct {
	Scheme mac.Scheme
	Rate   phy.Rate
	// Topology is MeshGrid (default), MeshDisk, or MeshChains.
	Topology string
	// Nodes is the node budget for grid/disk layouts (default 25). Grids
	// round down to the largest k×k that fits.
	Nodes int
	// Chains/ChainHops shape the MeshChains layout (defaults 4 chains of
	// 4 hops); Nodes is ignored there.
	Chains    int
	ChainHops int
	// RowSpacing separates the chains (0 = 1.0: adjacent chains share
	// spectrum and cross-chain links exist).
	RowSpacing float64
	// Flows is the number of concurrent TCP sessions (default max(2,
	// nodes/10)). Grid/disk flows are sampled seed-deterministically among
	// pairs at least MinHops apart; chains run one flow down each chain
	// (plus CrossFlows column flows).
	Flows int
	// CrossFlows adds vertical cross-traffic sessions on MeshChains.
	CrossFlows int
	// MinHops is the minimum route length for sampled flows (default 2).
	MinHops int
	// Radio overrides the distance-derived connectivity model.
	Radio topology.RadioModel
	// FileBytes per flow; defaults to PaperFileBytes.
	FileBytes int
	// MaxAggBytes caps aggregation; defaults to 5120.
	MaxAggBytes int
	// Mobility selects a node-motion model: "" (static, the default),
	// MobilityWaypoint or MobilityDrift. Moving nodes change link
	// existence and SNR with distance; every MoveInterval the positions
	// advance, link state is reconciled through the medium's incremental
	// paths, and shortest-path routes are recomputed.
	Mobility string
	// Speed is node speed in spacing units per simulated second
	// (default 1).
	Speed float64
	// Pause is the waypoint model's dwell time at each target.
	Pause time.Duration
	// MoveInterval is the mobility tick interval (default 1 s). Faults
	// share it: one dynamics tick steps motion and failures together.
	MoveInterval time.Duration
	// Faults injects seeded failures (node crashes, link flaps, scheduled
	// partitions, SNR bursts; see internal/faults). nil injects nothing. A
	// crashed node's MAC is detached and reset, its TCP connections are
	// aborted in place, and flows terminating at it are marked killed;
	// links cut by faults reconcile through the same incremental paths
	// mobility uses.
	Faults *faults.Config
	// WallBudget bounds the run's real elapsed time; past it the scheduler
	// panics with *sim.WallBudgetError (the runner converts that into a
	// per-run error). 0 means no watchdog.
	WallBudget time.Duration
	// Tweak adjusts every node's final MAC options.
	Tweak func(*mac.Options)
	// TraceTo streams the channel timeline to the writer; TraceNodes
	// restricts it to events touching the listed nodes; TraceFormat
	// selects TraceText (default) or TraceJSONL.
	TraceTo     io.Writer
	TraceNodes  []int
	TraceFormat string
	// Metrics samples the telemetry catalog on simulated-time ticks. nil
	// schedules nothing, so the event sequence and golden hashes are
	// untouched.
	Metrics *telemetry.Recorder
	// TCP overrides the transport config; zero value means defaults.
	TCP tcp.Config
	// Phy overrides the channel constants; nil means calibrated defaults.
	Phy  *phy.Params
	Seed int64
	// Deadline bounds simulated time (default 1200 s).
	Deadline time.Duration
}

// MeshFlowReport is one flow's outcome.
type MeshFlowReport struct {
	Server, Client network.NodeID
	// Hops is the route length at setup time.
	Hops int
	Mbps float64
	Done bool
	// Finish is when the last payload byte arrived.
	Finish time.Duration
	// Killed marks a flow terminated by a fault at one of its endpoints.
	Killed bool
	// Stall is the flow's longest gap between payload progress events
	// (unfinished flows include the tail gap to the end of the run).
	Stall time.Duration
}

// MeshResult is what a mesh experiment measures.
type MeshResult struct {
	// AggregateMbps sums every flow's goodput (incomplete flows count 0).
	AggregateMbps float64
	// MinMbps/MeanMbps summarize per-flow goodput.
	MinMbps, MeanMbps float64
	// Flows holds per-flow detail.
	Flows []MeshFlowReport
	// FlowsDone counts sessions that finished within the deadline.
	FlowsDone int
	Completed bool
	// Elapsed is the slowest completed flow's finish time.
	Elapsed time.Duration
	// EventsRun pins the executed-event count for determinism tests.
	EventsRun uint64
	// Shards is always 0. It remains only so the result's JSON encoding,
	// which perfbench/digests.json pins by hash, keeps its shape.
	Shards int
	// Topology shape: NodeCount is fixed; LinkCount and AvgDegree are
	// measured at the end of the run (mobility churns them).
	NodeCount, LinkCount int
	AvgDegree            float64
	// Mobility churn (all zero on static runs): LinkUps/LinkDowns count
	// links that came into/fell out of radio range, RouteFlaps counts
	// route-table entries changed by the periodic recomputation, and
	// RouteRecomputes counts the recompute rounds that ran — ticks whose
	// link set did not change skip the BFS pass entirely.
	LinkUps, LinkDowns int
	RouteFlaps         int
	RouteRecomputes    int
	// Fault-injection outcome (all zero, with Availability 1, when Faults
	// is unset). NodeCrashes/NodeRecoveries count observed node state
	// changes; FaultLinkDowns/FaultLinkUps count link-flap edges;
	// PartitionsStarted/PartitionsHealed count partition windows opening
	// and closing; SNRBursts counts degradation bursts that began.
	NodeCrashes, NodeRecoveries         int
	FaultLinkDowns, FaultLinkUps        int
	PartitionsStarted, PartitionsHealed int
	SNRBursts                           int
	// FlowsKilledByFault counts flows whose endpoint crashed mid-transfer.
	FlowsKilledByFault int
	// Availability is the time-averaged fraction of nodes that were up.
	Availability float64
	// MeanHealLatency averages, over healed partitions, the delay between
	// the scheduled window end and the dynamics tick that restored links —
	// the reconnection latency the periodic reconcile imposes.
	MeanHealLatency time.Duration
	// MaxFlowStall/MeanFlowStall summarize per-flow Stall values — how
	// long traffic froze while routes repaired around failures.
	MaxFlowStall, MeanFlowStall time.Duration
	// Nodes holds per-node counters (role is "server"/"client"/"relay" by
	// the node's part in the traffic, else "idle").
	Nodes []NodeReport
}

func (c *MeshTCPConfig) fill() {
	if c.Topology == "" {
		c.Topology = MeshGrid
	}
	if c.Nodes == 0 {
		c.Nodes = 25
	}
	if c.Chains == 0 {
		c.Chains = 4
	}
	if c.ChainHops == 0 {
		c.ChainHops = 4
	}
	if c.MinHops == 0 {
		c.MinHops = 2
	}
	if c.FileBytes == 0 {
		c.FileBytes = PaperFileBytes
	}
	if c.MaxAggBytes == 0 {
		c.MaxAggBytes = 5120
	}
	if c.Deadline == 0 {
		c.Deadline = 1200 * time.Second
	}
}

func (c *MeshTCPConfig) phyParams() phy.Params {
	if c.Phy != nil {
		return *c.Phy
	}
	return phy.DefaultParams()
}

// optsFor returns node i's MAC options.
func (c *MeshTCPConfig) optsFor(i, n int) mac.Options {
	opts := mac.DefaultOptions(c.Scheme, c.Rate)
	opts.MaxAggBytes = c.MaxAggBytes
	if c.Tweak != nil {
		c.Tweak(&opts)
	}
	return opts
}

// buildMesh constructs the configured topology.
func (c *MeshTCPConfig) buildMesh() *topology.Mesh {
	mcfg := topology.MeshConfig{
		Config: topology.Config{
			Seed:    c.Seed,
			Phy:     c.phyParams(),
			OptsFor: c.optsFor,
		},
		Radio: c.Radio,
	}
	switch c.Topology {
	case MeshGrid:
		k := int(math.Sqrt(float64(c.Nodes)))
		if k < 2 {
			k = 2
		}
		return topology.NewGrid(k, mcfg)
	case MeshDisk:
		return topology.NewRandomDisk(c.Nodes, mcfg)
	case MeshChains:
		return topology.NewParallelChains(c.Chains, c.ChainHops, c.RowSpacing, mcfg)
	default:
		panic(fmt.Sprintf("core: unknown mesh topology %q", c.Topology))
	}
}

// meshFlow is one planned session.
type meshFlow struct {
	server, client network.NodeID
	hops           int
	port           uint16
	done           bool
	killed         bool
	finish         sim.Time
	started        bool
	lastProgress   sim.Time
	maxStall       time.Duration
}

// planFlows picks the experiment's sessions deterministically from the
// seed: chains get one flow along each chain plus CrossFlows column flows;
// grid/disk sample distinct multi-hop pairs from a placement-independent
// stream. Hop distances come from BFS over the adjacency (cached per
// source), so planning needs no routes installed.
func (c *MeshTCPConfig) planFlows(m *topology.Mesh) []*meshFlow {
	dist := hopDist(m)
	var flows []*meshFlow
	addFlow := func(srv, cli int) {
		flows = append(flows, &meshFlow{
			server: network.NodeID(srv),
			client: network.NodeID(cli),
			hops:   dist(srv, cli),
			port:   uint16(8000 + len(flows)),
		})
	}
	if c.Topology == MeshChains {
		n := c.Flows
		if n <= 0 || n > c.Chains {
			n = c.Chains
		}
		for i := 0; i < n; i++ {
			addFlow(topology.ChainNode(i, 0, c.ChainHops), topology.ChainNode(i, c.ChainHops, c.ChainHops))
		}
		cols := c.ChainHops + 1
		for x := 0; x < c.CrossFlows; x++ {
			col := (x * cols) / (c.CrossFlows + 1) % cols
			srv := topology.ChainNode(0, col, c.ChainHops)
			cli := topology.ChainNode(c.Chains-1, col, c.ChainHops)
			// A single chain has no "across", and chains spaced beyond
			// radio range have no vertical route: a flow that can never
			// connect would just burn the deadline, so skip it.
			if srv == cli || dist(srv, cli) < 1 {
				continue
			}
			addFlow(srv, cli)
		}
		return flows
	}

	n := len(m.Nodes)
	want := c.Flows
	if want <= 0 {
		want = n / 10
		if want < 2 {
			want = 2
		}
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x666c6f77)) // "flow": decoupled from sim and placement streams
	used := make(map[[2]int]bool)
	for tries := 0; len(flows) < want && tries < 200*want; tries++ {
		srv, cli := rng.Intn(n), rng.Intn(n)
		if srv == cli || used[[2]int{srv, cli}] {
			continue
		}
		if d := dist(srv, cli); d < c.MinHops {
			continue
		}
		used[[2]int{srv, cli}] = true
		addFlow(srv, cli)
	}
	return flows
}

// hopDist returns the hop-count shortest distance between two nodes (-1
// where unreachable), running one BFS per distinct source.
func hopDist(m *topology.Mesh) func(a, b int) int {
	n := len(m.Nodes)
	adj := m.Adjacency()
	cache := make(map[int][]int)
	return func(a, b int) int {
		d, ok := cache[a]
		if !ok {
			d = routing.Distances(n, adj, a)
			cache[a] = d
		}
		return d[b]
	}
}

// installRoutes holds the route policy of every mesh run; topology
// generators install none. With allPairs unset the run is static and its
// flows are planned, so it installs routes toward the flow endpoints only:
// every packet such a run carries, BA's overheard broadcast ACKs included,
// is addressed to one, and each entry written is the one the all-pairs
// install would write. That is O(D·(N+E)) time and O(D·N) entries for D
// endpoints instead of O(N·(N+E)) and O(N²). Runs that cannot know their
// destinations up front set allPairs: mobility and fault recovery keep
// all-pairs tables current (RecomputeShortestPaths counts flaps against
// them), and scenario flows pick endpoints as they arrive.
func installRoutes(nodes []*network.Node, adj func(i int) []int, flows []*meshFlow, allPairs bool) {
	if allPairs {
		routing.InstallShortestPaths(nodes, adj)
		return
	}
	routing.InstallPathsToward(nodes, adj, flowEndpoints(flows))
}

// flowEndpoints returns the sorted distinct node ids appearing as a flow
// server or client — the only destinations a mesh run ever addresses.
func flowEndpoints(flows []*meshFlow) []int {
	seen := make(map[int]bool, 2*len(flows))
	var ids []int
	for _, f := range flows {
		for _, v := range [2]network.NodeID{f.server, f.client} {
			if !seen[int(v)] {
				seen[int(v)] = true
				ids = append(ids, int(v))
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// mobilityChurn accumulates the topology-dynamics counters of a run:
// mobility link churn plus fault-injection observations.
type mobilityChurn struct {
	LinkUps, LinkDowns int
	RouteFlaps         int
	Recomputes         int

	Crashes, Recoveries          int
	FaultLinkDowns, FaultLinkUps int
	PartStarts, PartHeals        int
	Bursts                       int
	HealLatency                  time.Duration
	set                          *faults.Set // nil when faults are off
}

// dynamicsHooks let the run layer react to observed node state changes
// before the tick's link reconcile runs.
type dynamicsHooks struct {
	onCrash, onRecover func(node int)
}

// startDynamics wires the topology-dynamics tick shared by RunMeshTCP and
// RunScenario: a periodic event on the mesh's scheduler advances node
// positions and fault processes together, reconciles link state through
// the medium's incremental SetConnected/SetSNR paths, and recomputes
// shortest-path routes with flap accounting. With neither mobility nor
// faults configured it schedules nothing, so a static run's event
// sequence — and golden hash — is untouched; fault processes draw only
// from their private streams, so enabling them perturbs no other draw.
func startDynamics(m *topology.Mesh, model string, speed float64, pause, interval time.Duration,
	fcfg *faults.Config, seed int64, hooks dynamicsHooks) *mobilityChurn {
	churn := &mobilityChurn{}
	var mob topology.Model
	if model != "" {
		var err error
		mob, err = topology.NewMobility(model, m, speed, pause, seed)
		if err != nil {
			panic(err.Error())
		}
	}
	if fcfg.Enabled() {
		churn.set = faults.New(*fcfg.Clone(), m, seed)
		m.SetOverlay(churn.set)
	}
	if mob == nil && churn.set == nil {
		return churn
	}
	iv := interval
	if iv <= 0 {
		iv = time.Second
	}
	var tick func()
	tick = func() {
		now := m.Sched.Now()
		pos := m.Pos
		if mob != nil {
			pos = mob.Step(now)
		}
		if churn.set != nil {
			fd := churn.set.Step(now)
			churn.Crashes += len(fd.Crashed)
			churn.Recoveries += len(fd.Recovered)
			churn.FaultLinkDowns += fd.FlapsDown
			churn.FaultLinkUps += fd.FlapsUp
			churn.PartStarts += fd.PartitionsStarted
			churn.PartHeals += fd.PartitionsHealed
			churn.HealLatency += fd.HealLatency
			churn.Bursts += fd.BurstsStarted
			// Hooks run before the reconcile: a crashed node's MAC and
			// transport die in the same tick its links are cut.
			for _, i := range fd.Crashed {
				if hooks.onCrash != nil {
					hooks.onCrash(i)
				}
			}
			for _, i := range fd.Recovered {
				if hooks.onRecover != nil {
					hooks.onRecover(i)
				}
			}
		}
		delta := m.UpdateLinks(pos)
		churn.LinkUps += delta.Up
		churn.LinkDowns += delta.Down
		// Hop-count routes only depend on link existence, and a
		// recompute over an unchanged graph provably changes nothing
		// (same BFS, same tie-breaks) — skip the O(N·(N+E)) pass on
		// ticks that moved nodes without crossing a range boundary.
		if delta.Up+delta.Down > 0 {
			churn.RouteFlaps += routing.RecomputeShortestPaths(m.Nodes, m.Adjacency())
			churn.Recomputes++
		}
		m.Sched.After(iv, "mesh:mobility", tick)
	}
	m.Sched.After(iv, "mesh:mobility", tick)
	return churn
}

// RunMeshTCP executes the experiment: build the mesh, start every flow
// (staggered a few hundred µs apart so the initial SYNs do not collide on
// identical backoff draws), run to completion or deadline.
func RunMeshTCP(cfg MeshTCPConfig) MeshResult {
	cfg.fill()
	tcfg := cfg.TCP
	if tcfg.MSS == 0 {
		tcfg = tcp.DefaultConfig()
	}

	m := cfg.buildMesh()
	if obs := traceObserver(cfg.TraceTo, cfg.TraceNodes, cfg.TraceFormat); obs != nil {
		m.Medium.SetObserver(obs)
	}
	flows := cfg.planFlows(m)
	installRoutes(m.Nodes, m.Adjacency(), flows, cfg.Mobility != "" || cfg.Faults.Enabled())

	stacks := make([]*tcp.Stack, len(m.Nodes))
	for i, node := range m.Nodes {
		stacks[i] = tcp.NewStack(m.Sched, node, tcfg)
	}

	killFlow := wireFlows(&cfg, flows, stacks, m.Sched)

	churn := startDynamics(m, cfg.Mobility, cfg.Speed, cfg.Pause, cfg.MoveInterval,
		cfg.Faults, cfg.Seed, dynamicsHooks{
			onCrash: func(node int) {
				mc := m.Nodes[node].MAC()
				mc.SetDown(true)
				mc.Reset()
				stacks[node].Abort()
				killFlow(network.NodeID(node))
			},
			onRecover: func(node int) { m.Nodes[node].MAC().SetDown(false) },
		})

	if cfg.Metrics != nil {
		reg := cfg.Metrics.Registry(0)
		registerRunMetrics(reg, m.Sched, m.Medium, m.Nodes, stacks, cfg.MaxAggBytes)
		registerFlowMetrics(reg, m.Sched, flows)
		reg.Start(m.Sched, cfg.Metrics.Interval(), cfg.Deadline)
	}

	if cfg.WallBudget > 0 {
		m.Sched.SetWallBudget(cfg.WallBudget)
	}
	m.Sched.RunUntil(cfg.Deadline)

	return assembleMeshResult(&cfg, flows, m, churn)
}

// wireFlows installs every planned flow: a listener plus completion
// bookkeeping at the client, and a staggered connect event at the server.
// The run halts as the last flow settles. The returned func marks every
// live flow terminating at the given node as fault-killed (the crash hook
// calls it); killed flows settle too, so a run whose remaining flows all
// die still halts early.
func wireFlows(cfg *MeshTCPConfig, flows []*meshFlow, stacks []*tcp.Stack,
	sched *sim.Scheduler) func(network.NodeID) {
	remaining := len(flows)
	settle := func() {
		remaining--
		if remaining == 0 {
			sched.Halt()
		}
	}
	for i, f := range flows {
		i, f := i, f
		lis := stacks[f.client].Listen(f.port)
		var got int64
		lis.Setup = func(conn *tcp.Conn) {
			conn.OnData = func(b []byte) {
				got += int64(len(b))
				now := sched.Now()
				if gap := now - f.lastProgress; gap > f.maxStall {
					f.maxStall = gap
				}
				f.lastProgress = now
				if !f.done && !f.killed && got >= int64(cfg.FileBytes) {
					f.done = true
					f.finish = now
					settle()
				}
			}
			conn.OnPeerClose = func() { conn.Close() }
		}
		start := time.Duration(i) * 150 * time.Microsecond
		sched.After(start, "mesh:connect", func() {
			f.started = true
			f.lastProgress = sched.Now()
			conn := stacks[f.server].Connect(f.client, f.port)
			data := make([]byte, cfg.FileBytes)
			conn.OnEstablished = func() {
				_ = conn.Send(data)
				conn.Close()
			}
		})
	}
	return func(node network.NodeID) {
		for _, f := range flows {
			if f.done || f.killed || (f.server != node && f.client != node) {
				continue
			}
			f.killed = true
			settle()
		}
	}
}

// assembleMeshResult turns the finished run's state into a MeshResult.
// The run's final simulated time drives availability and tail-stall
// accounting.
func assembleMeshResult(cfg *MeshTCPConfig, flows []*meshFlow, m *topology.Mesh, churn *mobilityChurn) MeshResult {
	nodes, end := m.Nodes, m.Sched.Now()
	res := MeshResult{
		Completed:         true,
		EventsRun:         m.Sched.EventsRun(),
		NodeCount:         len(nodes),
		LinkCount:         m.LinkCount,
		AvgDegree:         m.AvgDegree(),
		LinkUps:           churn.LinkUps,
		LinkDowns:         churn.LinkDowns,
		RouteFlaps:        churn.RouteFlaps,
		RouteRecomputes:   churn.Recomputes,
		NodeCrashes:       churn.Crashes,
		NodeRecoveries:    churn.Recoveries,
		FaultLinkDowns:    churn.FaultLinkDowns,
		FaultLinkUps:      churn.FaultLinkUps,
		PartitionsStarted: churn.PartStarts,
		PartitionsHealed:  churn.PartHeals,
		SNRBursts:         churn.Bursts,
		Availability:      1,
	}
	if churn.set != nil {
		res.Availability = churn.set.Availability(end)
	}
	if churn.PartHeals > 0 {
		res.MeanHealLatency = churn.HealLatency / time.Duration(churn.PartHeals)
	}
	res.MinMbps = math.Inf(1)
	for _, f := range flows {
		rep := MeshFlowReport{Server: f.server, Client: f.client, Hops: f.hops,
			Done: f.done, Killed: f.killed}
		if f.started && !f.done && !f.killed {
			// The tail gap — last progress to the end of the run — is a
			// stall too: a flow frozen by an unhealed failure shows up
			// here, not as a mid-run gap. (A killed flow stops accruing
			// stall at its endpoint's crash.)
			if gap := end - f.lastProgress; gap > f.maxStall {
				f.maxStall = gap
			}
		}
		rep.Stall = f.maxStall
		if rep.Stall > res.MaxFlowStall {
			res.MaxFlowStall = rep.Stall
		}
		res.MeanFlowStall += rep.Stall
		if f.killed {
			res.FlowsKilledByFault++
		}
		if f.done {
			rep.Finish = time.Duration(f.finish)
			rep.Mbps = float64(cfg.FileBytes) * 8 / rep.Finish.Seconds() / 1e6
			res.FlowsDone++
			if rep.Finish > res.Elapsed {
				res.Elapsed = rep.Finish
			}
		} else {
			res.Completed = false
		}
		res.AggregateMbps += rep.Mbps
		if rep.Mbps < res.MinMbps {
			res.MinMbps = rep.Mbps
		}
		res.Flows = append(res.Flows, rep)
	}
	if len(flows) > 0 {
		res.MeanFlowStall /= time.Duration(len(flows))
	}
	if len(flows) > 0 {
		res.MeanMbps = res.AggregateMbps / float64(len(flows))
	} else {
		res.MinMbps = 0
	}

	role := make([]string, len(nodes))
	for i := range role {
		role[i] = "idle"
	}
	for i, node := range nodes {
		if node.Stats().Forwarded > 0 {
			role[i] = "relay"
		}
	}
	for _, f := range flows {
		role[f.client] = "client"
	}
	for _, f := range flows {
		role[f.server] = "server"
	}
	for i, node := range nodes {
		res.Nodes = append(res.Nodes, NodeReport{
			ID:            i,
			Role:          role[i],
			MAC:           node.MAC().Counters(),
			Net:           node.Stats(),
			PreambleBytes: node.MAC().PreambleBytesPerTx(),
		})
	}
	return res
}
