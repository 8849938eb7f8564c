package topology

import (
	"testing"

	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
)

func meshCfg(seed int64) MeshConfig {
	return MeshConfig{Config: cfg(seed)}
}

// routed installs all-pairs shortest-path routes on a generated mesh; the
// generators leave routing to their callers.
func routed(m *Mesh) *Mesh {
	routing.InstallShortestPaths(m.Nodes, m.Adjacency())
	return m
}

// TestGeneratorsInstallNoRoutes: route tables are the caller's choice, so a
// fresh mesh has none and HopDistance reports every distinct pair
// unreachable until the caller installs them.
func TestGeneratorsInstallNoRoutes(t *testing.T) {
	for name, m := range map[string]*Mesh{
		"grid":   NewGrid(3, meshCfg(1)),
		"disk":   NewRandomDisk(12, meshCfg(1)),
		"chains": NewParallelChains(2, 2, 1, meshCfg(1)),
	} {
		for _, node := range m.Nodes {
			if _, ok := node.Route(1); ok && node.ID() != 1 {
				t.Errorf("%s: node %d has a route before any install", name, node.ID())
			}
		}
		if d := m.HopDistance(0, 1); d != -1 {
			t.Errorf("%s: HopDistance(0, 1) = %d before any install, want -1", name, d)
		}
	}
}

func TestGridBuild(t *testing.T) {
	m := routed(NewGrid(4, meshCfg(1)))
	if len(m.Nodes) != 16 {
		t.Fatalf("4x4 grid has %d nodes", len(m.Nodes))
	}
	// Default radio model (range 1.5): corner degree 3, interior degree 8.
	if d := m.Medium.Degree(0); d != 3 {
		t.Errorf("corner degree = %d, want 3", d)
	}
	if d := m.Medium.Degree(5); d != 8 {
		t.Errorf("interior degree = %d, want 8", d)
	}
	// Nodes two cells apart are out of range.
	if m.Medium.Connected(0, 2) {
		t.Error("grid connected nodes 2 cells apart (range 1.5)")
	}
	// Diagonal links are weaker than orthogonal ones but present.
	if !m.Medium.Connected(0, 5) {
		t.Error("diagonal neighbor not connected")
	}
	// Shortest-path routes: opposite corners are 3 diagonal hops apart.
	if d := m.HopDistance(0, 15); d != 3 {
		t.Errorf("corner-to-corner route = %d hops, want 3", d)
	}
	if m.Bridged != 0 {
		t.Errorf("grid needed %d bridges", m.Bridged)
	}
}

func TestGridForwardsEndToEnd(t *testing.T) {
	m := routed(NewGrid(4, meshCfg(2)))
	got := 0
	m.Nodes[15].Handle(network.ProtoUDP, func(p network.Packet) { got++ })
	m.Sched.After(0, "send", func() {
		_ = m.Nodes[0].Send(network.Packet{Proto: network.ProtoUDP, Src: 0, Dst: 15, Payload: []byte("x")})
	})
	m.Sched.Run()
	if got != 1 {
		t.Fatalf("corner-to-corner delivery failed (got %d)", got)
	}
}

func TestRandomDiskConnectedAndDeterministic(t *testing.T) {
	a := routed(NewRandomDisk(40, meshCfg(7)))
	if len(a.Nodes) != 40 {
		t.Fatalf("disk has %d nodes", len(a.Nodes))
	}
	// Bridging must leave a single component (graph-level check), and the
	// installed routes must agree with the graph distances (route walk).
	dist := routing.Distances(len(a.Nodes), a.Adjacency(), 0)
	for j := 1; j < len(a.Nodes); j++ {
		if dist[j] < 0 {
			t.Fatalf("node %d unreachable after bridging", j)
		}
		if got := a.HopDistance(0, j); got != dist[j] {
			t.Fatalf("route walk 0->%d = %d hops, BFS distance %d", j, got, dist[j])
		}
	}
	b := NewRandomDisk(40, meshCfg(7))
	if a.LinkCount != b.LinkCount || a.Bridged != b.Bridged {
		t.Errorf("same seed produced different meshes: %d/%d links, %d/%d bridges",
			a.LinkCount, b.LinkCount, a.Bridged, b.Bridged)
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("same seed placed node %d at %v and %v", i, a.Pos[i], b.Pos[i])
		}
	}
	c := NewRandomDisk(40, meshCfg(8))
	same := 0
	for i := range a.Pos {
		if a.Pos[i] == c.Pos[i] {
			same++
		}
	}
	if same == len(a.Pos) {
		t.Error("different seeds produced identical placements")
	}
}

func TestParallelChains(t *testing.T) {
	// Adjacent chains at spacing 1 share spectrum and can route across.
	m := routed(NewParallelChains(3, 4, 1, meshCfg(3)))
	if len(m.Nodes) != 15 {
		t.Fatalf("3 chains x 4 hops = %d nodes, want 15", len(m.Nodes))
	}
	if d := m.HopDistance(ChainNode(0, 0, 4), ChainNode(0, 4, 4)); d != 4 {
		t.Errorf("along-chain distance = %d, want 4", d)
	}
	if d := m.HopDistance(ChainNode(0, 2, 4), ChainNode(2, 2, 4)); d != 2 {
		t.Errorf("cross-chain distance = %d, want 2", d)
	}
	// Spacing past the radio range isolates the chains.
	far := routed(NewParallelChains(2, 3, 5, meshCfg(3)))
	if d := far.HopDistance(ChainNode(0, 0, 3), ChainNode(1, 0, 3)); d != -1 {
		t.Errorf("isolated chains still routed (%d hops)", d)
	}
	if far.HopDistance(ChainNode(1, 0, 3), ChainNode(1, 3, 3)) != 3 {
		t.Error("second isolated chain lost its own route")
	}
}

func TestMeshPerNodeOptions(t *testing.T) {
	c := MeshConfig{Config: Config{
		Seed: 5,
		Phy:  phy.DefaultParams(),
		OptsFor: func(i, n int) mac.Options {
			o := mac.DefaultOptions(mac.UA, phy.Rate1300k)
			o.MaxAggBytes = 4096 + i
			return o
		},
	}}
	m := NewGrid(3, c)
	for i, node := range m.Nodes {
		if got := node.MAC().Opts().MaxAggBytes; got != 4096+i {
			t.Fatalf("node %d got MaxAggBytes %d", i, got)
		}
	}
}

func TestAvgDegreeMatchesLinkCount(t *testing.T) {
	m := NewGrid(5, meshCfg(1))
	// Each bidirectional link contributes 2 to the degree total.
	want := float64(2*m.LinkCount) / float64(len(m.Nodes))
	if got := m.AvgDegree(); got != want {
		t.Errorf("AvgDegree = %v, want %v", got, want)
	}
}
