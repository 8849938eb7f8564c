// The declarative scenario schema: a versioned JSON file that names a
// complete experiment — topology, radio, mobility, traffic mix, schemes,
// duration — so workloads are data, not code. internal/core resolves a
// Scenario into a running simulation (core.RunScenario); cmd/aggsim loads
// one with -scenario; examples/scenarios/ holds annotated instances.
package traffic

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// SchemaVersion is the scenario file format this build reads. Bump it on
// incompatible schema changes; Validate rejects files from the future so a
// stale binary fails loudly instead of misreading new fields. Version 2
// added the optional "faults" section; files that use it must declare at
// least version 2, and version-1 files parse unchanged.
const SchemaVersion = 2

// Scenario is one declarative experiment. All durations are plain seconds
// (JSON numbers), not Go duration strings, so files stay tool-friendly.
type Scenario struct {
	// Version is the schema version; required, at most SchemaVersion.
	Version int `json:"version"`
	// Name labels reports and derived per-flow seeds.
	Name string `json:"name"`
	// Seed makes the whole scenario reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationS is how long (simulated seconds) flows keep arriving.
	DurationS float64 `json:"duration_s"`
	// DeadlineS bounds the whole simulation, giving in-flight flows time
	// to drain after arrivals stop (default 2 × duration_s). Flows still
	// incomplete at the deadline count as abandoned.
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Schemes lists the MAC schemes to run the scenario under
	// (na|ua|ba|dba); one run per scheme.
	Schemes []string `json:"schemes"`
	// RateMbps is the PHY data rate (default 2.6).
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// MaxAggBytes caps aggregation (default 5120).
	MaxAggBytes int `json:"max_agg_bytes,omitempty"`

	Topology Topology  `json:"topology"`
	Mobility *Mobility `json:"mobility,omitempty"`
	Traffic  Traffic   `json:"traffic"`
	// Faults injects seeded failures (schema version >= 2).
	Faults *Faults `json:"faults,omitempty"`
}

// Topology selects a generated mesh layout.
type Topology struct {
	// Kind is grid | disk | chains.
	Kind string `json:"kind"`
	// Nodes is the node budget for grid/disk (default 25).
	Nodes int `json:"nodes,omitempty"`
	// Chains / ChainHops / RowSpacing shape the chains layout.
	Chains     int     `json:"chains,omitempty"`
	ChainHops  int     `json:"chain_hops,omitempty"`
	RowSpacing float64 `json:"row_spacing,omitempty"`
	// Radio overrides the distance-derived connectivity model.
	Radio *Radio `json:"radio,omitempty"`
}

// Radio mirrors topology.RadioModel in schema form.
type Radio struct {
	Range    float64 `json:"range,omitempty"`
	RefSNRdB float64 `json:"ref_snr_db,omitempty"`
	Exponent float64 `json:"exponent,omitempty"`
}

// Mobility turns on node motion.
type Mobility struct {
	// Model is waypoint | drift.
	Model string `json:"model"`
	// Speed in spacing units per second (default 1).
	Speed float64 `json:"speed,omitempty"`
	// PauseS is the waypoint dwell time (seconds).
	PauseS float64 `json:"pause_s,omitempty"`
	// MoveIntervalS is the position/link/route update interval (default 1).
	MoveIntervalS float64 `json:"move_interval_s,omitempty"`
}

// Faults mirrors faults.Config in schema form: seeded node crash/recover
// cycles, link flapping, scheduled area partitions and SNR-degradation
// bursts. All times are mean seconds of exponential draws; a class whose
// MTBF is 0 (or absent) is disabled. See internal/faults for semantics.
type Faults struct {
	// CrashMTBFS is each node's mean up time between crashes;
	// CrashMTTRS the mean repair time (default 10 when crashes are on).
	CrashMTBFS float64 `json:"crash_mtbf_s,omitempty"`
	CrashMTTRS float64 `json:"crash_mttr_s,omitempty"`
	// FlapMTBFS/FlapMTTRS drive per-link up/down flapping (MTTR default 2).
	FlapMTBFS float64 `json:"flap_mtbf_s,omitempty"`
	FlapMTTRS float64 `json:"flap_mttr_s,omitempty"`
	// SNRBurstMTBFS/SNRBurstMTTRS drive per-node SNR-degradation bursts
	// (MTTR default 1); SNRBurstDB is the per-endpoint penalty (default 10).
	SNRBurstMTBFS float64 `json:"snr_burst_mtbf_s,omitempty"`
	SNRBurstMTTRS float64 `json:"snr_burst_mttr_s,omitempty"`
	SNRBurstDB    float64 `json:"snr_burst_db,omitempty"`
	// Partitions are scheduled area partitions, applied independently.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
}

// PartitionSpec is one scheduled area partition: for seconds
// [start_s, start_s+duration_s) every link crossing the line axis = at is
// cut.
type PartitionSpec struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
	// Axis is "x" (default) or "y".
	Axis string  `json:"axis,omitempty"`
	At   float64 `json:"at"`
}

// Traffic declares the workload: an arrival discipline plus a model mix.
type Traffic struct {
	// Mode is open (Poisson flow arrivals) or closed (think-time users).
	Mode string `json:"mode"`
	// ArrivalRate is the open-loop flow arrival rate, flows per second.
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// Users is the closed-loop population size.
	Users int `json:"users,omitempty"`
	// ThinkS is the closed-loop mean think time in seconds (default 1).
	ThinkS float64 `json:"think_s,omitempty"`
	// MinHops is the minimum route length for sampled endpoint pairs
	// (default 2, matching the mesh experiments).
	MinHops int `json:"min_hops,omitempty"`
	// MaxFlows caps total flow starts as a runaway guard (default and
	// hard limit MaxFlowsLimit; Validate rejects larger values).
	MaxFlows int `json:"max_flows,omitempty"`
	// Mix is the weighted model set arriving flows sample from.
	Mix []WeightedModel `json:"mix"`
}

// MaxFlowsLimit is the hard bound on flow starts per run: the engine
// assigns each flow a listener port in 1..MaxFlowsLimit, below the TCP
// stacks' ephemeral range (10000+), so every flow's port is collision-free.
const MaxFlowsLimit = 9999

// Clone returns a deep copy: the Schemes and Mix slices and the Mobility
// pointer are duplicated, so normalizing or running the copy can never
// write through memory shared with the original. core.RunScenario clones
// its input first — one Scenario value fanned across pool workers (one
// run per scheme) would otherwise race on Normalize's in-place writes.
func (s Scenario) Clone() Scenario {
	c := s
	c.Schemes = append([]string(nil), s.Schemes...)
	c.Traffic.Mix = append([]WeightedModel(nil), s.Traffic.Mix...)
	if s.Mobility != nil {
		mob := *s.Mobility
		c.Mobility = &mob
	}
	if s.Topology.Radio != nil {
		radio := *s.Topology.Radio
		c.Topology.Radio = &radio
	}
	if s.Faults != nil {
		f := *s.Faults
		f.Partitions = append([]PartitionSpec(nil), s.Faults.Partitions...)
		c.Faults = &f
	}
	return c
}

// SchemeNames lists the scheme names scenarios may reference. It must
// stay in lockstep with mac.SchemeByName; a test in internal/core (which
// can see both packages) enforces that.
func SchemeNames() []string { return []string{"na", "ua", "ba", "dba"} }

// knownSchemes indexes SchemeNames for validation (case-insensitive, like
// mac.SchemeByName).
var knownSchemes = func() map[string]bool {
	m := make(map[string]bool)
	for _, n := range SchemeNames() {
		m[n] = true
	}
	return m
}()

// knownTopologies mirrors core's mesh kinds.
var knownTopologies = map[string]bool{"grid": true, "disk": true, "chains": true}

// knownMobility mirrors topology's model names.
var knownMobility = map[string]bool{"waypoint": true, "drift": true}

// Normalize fills defaulted fields in place. Validate calls it; it is
// idempotent and exported so tests can inspect the resolved scenario.
func (s *Scenario) Normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DeadlineS == 0 {
		s.DeadlineS = 2 * s.DurationS
	}
	if s.RateMbps == 0 {
		s.RateMbps = 2.6
	}
	if s.MaxAggBytes == 0 {
		s.MaxAggBytes = 5120
	}
	if s.Topology.Nodes == 0 && s.Topology.Kind != "chains" {
		s.Topology.Nodes = 25
	}
	if s.Topology.Kind == "chains" {
		if s.Topology.Chains == 0 {
			s.Topology.Chains = 4
		}
		if s.Topology.ChainHops == 0 {
			s.Topology.ChainHops = 4
		}
	}
	if s.Mobility != nil {
		if s.Mobility.Speed == 0 {
			s.Mobility.Speed = 1
		}
		if s.Mobility.PauseS == 0 {
			s.Mobility.PauseS = 1
		}
		if s.Mobility.MoveIntervalS == 0 {
			s.Mobility.MoveIntervalS = 1
		}
	}
	if s.Traffic.ThinkS == 0 {
		s.Traffic.ThinkS = 1
	}
	if s.Traffic.MinHops == 0 {
		s.Traffic.MinHops = 2
	}
	if s.Traffic.MaxFlows == 0 {
		s.Traffic.MaxFlows = MaxFlowsLimit
	}
	for i := range s.Traffic.Mix {
		s.Traffic.Mix[i].Model = s.Traffic.Mix[i].Model.withDefaults()
	}
	if f := s.Faults; f != nil {
		// Mirror faults.Config.Normalize so the resolved schema and the
		// fault engine agree on the effective parameters.
		if f.CrashMTBFS > 0 && f.CrashMTTRS == 0 {
			f.CrashMTTRS = 10
		}
		if f.FlapMTBFS > 0 && f.FlapMTTRS == 0 {
			f.FlapMTTRS = 2
		}
		if f.SNRBurstMTBFS > 0 {
			if f.SNRBurstMTTRS == 0 {
				f.SNRBurstMTTRS = 1
			}
			if f.SNRBurstDB == 0 {
				f.SNRBurstDB = 10
			}
		}
		for i := range f.Partitions {
			if f.Partitions[i].Axis == "" {
				f.Partitions[i].Axis = "x"
			}
		}
	}
}

// Validate normalizes the scenario and reports the first problem.
func (s *Scenario) Validate() error {
	if s.Version < 1 {
		return fmt.Errorf("traffic: scenario is missing \"version\" (current schema is %d)", SchemaVersion)
	}
	if s.Version > SchemaVersion {
		return fmt.Errorf("traffic: scenario version %d is newer than this build's schema %d", s.Version, SchemaVersion)
	}
	s.Normalize()
	if s.DurationS <= 0 {
		return fmt.Errorf("traffic: duration_s must be positive, got %g", s.DurationS)
	}
	if s.DeadlineS < s.DurationS {
		return fmt.Errorf("traffic: deadline_s %g is shorter than duration_s %g", s.DeadlineS, s.DurationS)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("traffic: scenario needs at least one scheme (na|ua|ba|dba)")
	}
	for _, sch := range s.Schemes {
		if !knownSchemes[strings.ToLower(sch)] {
			return fmt.Errorf("traffic: unknown scheme %q (na|ua|ba|dba)", sch)
		}
	}
	if !knownTopologies[s.Topology.Kind] {
		return fmt.Errorf("traffic: unknown topology kind %q (grid|disk|chains)", s.Topology.Kind)
	}
	if s.Topology.Kind != "chains" && s.Topology.Nodes < 4 {
		return fmt.Errorf("traffic: topology needs at least 4 nodes, got %d", s.Topology.Nodes)
	}
	if m := s.Mobility; m != nil {
		if !knownMobility[m.Model] {
			return fmt.Errorf("traffic: unknown mobility model %q (waypoint|drift)", m.Model)
		}
		if m.Speed < 0 {
			return fmt.Errorf("traffic: mobility speed %g is negative", m.Speed)
		}
		if m.PauseS < 0 {
			return fmt.Errorf("traffic: mobility pause_s %g is negative", m.PauseS)
		}
		if m.MoveIntervalS <= 0 {
			return fmt.Errorf("traffic: mobility move_interval_s must be positive, got %g", m.MoveIntervalS)
		}
	}
	switch s.Traffic.Mode {
	case ModeOpen:
		if s.Traffic.ArrivalRate <= 0 {
			return fmt.Errorf("traffic: open mode needs arrival_rate > 0, got %g", s.Traffic.ArrivalRate)
		}
	case ModeClosed:
		if s.Traffic.Users < 1 {
			return fmt.Errorf("traffic: closed mode needs users >= 1, got %d", s.Traffic.Users)
		}
		if s.Traffic.ThinkS <= 0 {
			return fmt.Errorf("traffic: think_s must be positive, got %g", s.Traffic.ThinkS)
		}
	default:
		return fmt.Errorf("traffic: unknown traffic mode %q (open|closed)", s.Traffic.Mode)
	}
	if s.Traffic.MinHops < 1 {
		return fmt.Errorf("traffic: min_hops must be at least 1, got %d", s.Traffic.MinHops)
	}
	if s.Traffic.MaxFlows > MaxFlowsLimit {
		return fmt.Errorf("traffic: max_flows %d exceeds the engine limit %d", s.Traffic.MaxFlows, MaxFlowsLimit)
	}
	if _, err := NewMix(s.Traffic.Mix); err != nil {
		return err
	}
	if f := s.Faults; f != nil {
		if s.Version < 2 {
			return fmt.Errorf("traffic: the faults section needs schema version >= 2, got %d", s.Version)
		}
		// 0.001 s mirrors the fault engine's minimum mean (faults.minMean):
		// renewal legs are consumed one by one, so a tiny mean would make
		// every dynamics tick arbitrarily expensive.
		const minMeanS = 0.001
		check := func(name string, mtbf, mttr float64) error {
			if mtbf == 0 && mttr >= 0 {
				return nil
			}
			if mtbf != 0 && mtbf < minMeanS {
				return fmt.Errorf("traffic: faults %s_mtbf_s %g is below the minimum %g", name, mtbf, minMeanS)
			}
			if mttr < minMeanS {
				return fmt.Errorf("traffic: faults %s_mttr_s %g is below the minimum %g", name, mttr, minMeanS)
			}
			return nil
		}
		if err := check("crash", f.CrashMTBFS, f.CrashMTTRS); err != nil {
			return err
		}
		if err := check("flap", f.FlapMTBFS, f.FlapMTTRS); err != nil {
			return err
		}
		if err := check("snr_burst", f.SNRBurstMTBFS, f.SNRBurstMTTRS); err != nil {
			return err
		}
		if f.SNRBurstDB < 0 {
			return fmt.Errorf("traffic: faults snr_burst_db %g is negative", f.SNRBurstDB)
		}
		for i, p := range f.Partitions {
			if p.Axis != "x" && p.Axis != "y" {
				return fmt.Errorf("traffic: faults partition %d axis %q (want x|y)", i, p.Axis)
			}
			if p.StartS < 0 {
				return fmt.Errorf("traffic: faults partition %d start_s %g is negative", i, p.StartS)
			}
			if p.DurationS <= 0 {
				return fmt.Errorf("traffic: faults partition %d duration_s %g must be positive", i, p.DurationS)
			}
		}
	}
	return nil
}

// Duration returns the arrival window as a time.Duration.
func (s *Scenario) Duration() time.Duration {
	return time.Duration(s.DurationS * float64(time.Second))
}

// Deadline returns the simulation bound as a time.Duration.
func (s *Scenario) Deadline() time.Duration {
	return time.Duration(s.DeadlineS * float64(time.Second))
}

// Parse decodes and validates a scenario. Unknown fields are errors, so a
// typo'd key fails instead of silently running the defaults.
func Parse(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("traffic: parsing scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// Load reads and validates a scenario file.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("traffic: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	return s, nil
}
