package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/phy"
)

// resultDigest hashes a mesh result's JSON: exact float bits, every
// per-flow and per-node field, and EventsRun.
func resultDigest(t *testing.T, res MeshResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestRunMeshTCPSparseRoutesEquivalent pins the static route policy: a run
// that installs routes only toward its flow endpoints is bit-identical to
// the same run on all-pairs tables. The digests are of all-pairs runs,
// recorded when both installs could still be selected and produced equal
// results. BA is the scheme that stresses it — overheard broadcast ACKs
// are forwarded by any node with a route — and grid, disk and chains
// exercise all three flow-planning paths.
func TestRunMeshTCPSparseRoutesEquivalent(t *testing.T) {
	cases := []struct {
		name   string
		cfg    MeshTCPConfig
		digest string
	}{
		{"grid", MeshTCPConfig{
			Scheme: mac.BA, Rate: phy.Rate2600k,
			Topology: MeshGrid, Nodes: 25, Flows: 4,
			FileBytes: 8_000, Seed: 3,
			Deadline: 600 * time.Second,
		}, "279ea5d27b6af6c484764577a68bf347334ffeb32e69e5734eecb8cddcfbf60a"},
		{"disk", MeshTCPConfig{
			Scheme: mac.BA, Rate: phy.Rate2600k,
			Topology: MeshDisk, Nodes: 30, Flows: 3,
			FileBytes: 6_000, Seed: 5,
			Deadline: 600 * time.Second,
		}, "ae359df12a940deb31f160bcba3df6d7c3485b3541d2ded509d975b6102a460e"},
		{"chains", MeshTCPConfig{
			Scheme: mac.UA, Rate: phy.Rate2600k,
			Topology: MeshChains, Chains: 3, ChainHops: 3, CrossFlows: 1,
			FileBytes: 6_000, Seed: 2,
			Deadline: 600 * time.Second,
		}, "447b1a809bfe33ab04b6c4cd8f1456cc086bdfeb618883092d17fd46ecf78287"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := resultDigest(t, RunMeshTCP(tc.cfg)); got != tc.digest {
				t.Fatalf("endpoint-route run digest %s, all-pairs digest %s", got, tc.digest)
			}
		})
	}
}

// TestRunMeshTCPSparseRoutesShardedEquivalent repeats the pin on the
// sharded engine, whose route install happens on rebuilt nodes.
func TestRunMeshTCPSparseRoutesShardedEquivalent(t *testing.T) {
	cfg := MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: MeshGrid, Nodes: 25, Flows: 3,
		FileBytes: 6_000, Seed: 7, Shards: 2,
		Deadline: 600 * time.Second,
	}
	const allPairs = "8407d4892e03a4044525e8096401c900baa645e286d019516c1da789282fdf7a"
	if got := resultDigest(t, RunMeshTCP(cfg)); got != allPairs {
		t.Fatalf("endpoint-route sharded run digest %s, all-pairs digest %s", got, allPairs)
	}
}

// scaleGated skips t unless AGGMAC_SCALE is set: the large-N test below
// builds a 25,600-node world, so only the CI scale job (and explicit local
// runs) pay for it. The scale job's N=400 full run is a gated golden row
// in the root package (scaleGoldens in golden_test.go).
func scaleGated(t *testing.T) {
	if os.Getenv("AGGMAC_SCALE") == "" {
		t.Skip("set AGGMAC_SCALE=1 to run large-N scale tests")
	}
}

// TestLargeGridSmoke is the acceptance smoke for the sparse table: an
// N=25600 grid mesh must construct and simulate with link-state memory
// O(N·degree). The interesting assertions are that it finishes at all
// (construction used to be O(N²) in both time and memory) and that the
// link store holds only real links — a grid's 8-neighborhood keeps the
// directed count under 8N where the dense matrix held N² entries.
func TestLargeGridSmoke(t *testing.T) {
	scaleGated(t)
	const n = 25600 // 160×160
	res := RunMeshTCP(MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: MeshGrid, Nodes: n, Flows: 4,
		FileBytes: 20_000, Seed: 1,
		Deadline: 600 * time.Second,
	})
	if res.NodeCount != n {
		t.Fatalf("built %d nodes, want %d", res.NodeCount, n)
	}
	if res.FlowsDone == 0 {
		t.Fatal("smoke sim completed no flows")
	}
	// 160×160 grid, radio range 1.5: interior nodes have degree 8, so the
	// bidirectional link count sits well under 4N.
	if res.LinkCount >= 4*n {
		t.Fatalf("grid wired %d links — not a sparse 8-neighborhood", res.LinkCount)
	}
}
