// Static shortest-path route computation for generated mesh topologies.
// The paper's testbed forces multi-hop paths with static routes; mesh
// scenarios do the same at scale: instead of flooding AODV discoveries
// through hundreds of nodes, mesh runs compute hop-count shortest paths
// over the connectivity graph up front and install them into the network
// layer's tables, so transports start with every route they will use.
// Mobile scenarios re-run the computation periodically with
// RecomputeShortestPaths, which also accounts for how many table entries
// each round changed (the route-flap metric).
package routing

import "aggmac/internal/network"

// InstallShortestPaths computes hop-count shortest-path next hops by a BFS
// per destination over the given adjacency and installs them into every
// node's routing table (network.Node.AddRoute). neighbors(i) must list the
// nodes adjacent to i in ascending order and must be symmetric (mesh
// generators derive it from bidirectional links); ties between equal-length
// paths break toward the lowest-id next hop, so the tables — and every
// simulation run on top of them — are deterministic. Unreachable pairs get
// no route. Cost is O(N·(N+E)); it returns the number of routes installed.
func InstallShortestPaths(nodes []*network.Node, neighbors func(i int) []int) int {
	n := len(nodes)
	next := make([]int, n)  // next hop toward the current destination
	queue := make([]int, n) // BFS ring
	installed := 0
	for d := 0; d < n; d++ {
		bfsNextHops(d, neighbors, next, queue)
		for v := 0; v < n; v++ {
			if v == d || next[v] == -1 {
				continue
			}
			nodes[v].AddRoute(network.NodeID(d), network.NodeID(next[v]))
			installed++
		}
	}
	return installed
}

// bfsNextHops fills next[v] with v's next hop toward destination d (-1
// where unreachable, d at d itself) by one BFS from d over the adjacency.
// next and queue are caller-provided scratch of length n.
func bfsNextHops(d int, neighbors func(i int) []int, next, queue []int) {
	for i := range next {
		next[i] = -1
	}
	next[d] = d
	queue[0] = d
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		for _, v := range neighbors(u) {
			if next[v] != -1 {
				continue
			}
			// v reaches d through u: u is one hop closer.
			next[v] = u
			queue[tail] = v
			tail++
		}
	}
}

// InstallPathsToward installs hop-count shortest-path next hops toward just
// the listed destinations: one BFS per destination over the adjacency, with
// exactly InstallShortestPaths' tie-breaking, installed at every node that
// reaches the destination. Duplicate destinations are skipped. For D
// destinations the cost is O(D·(N+E)) time and O(D·N) route entries — the
// large-mesh alternative to the all-pairs install when the set of node ids
// that will ever appear as a packet destination is known up front (a mesh
// run's flow endpoints, say). Any forwarding decision a run actually makes
// then reads the same table entry the full install would have written.
func InstallPathsToward(nodes []*network.Node, neighbors func(i int) []int, dests []int) int {
	n := len(nodes)
	next := make([]int, n)
	queue := make([]int, n)
	seen := make(map[int]bool, len(dests))
	installed := 0
	for _, d := range dests {
		if seen[d] {
			continue
		}
		seen[d] = true
		bfsNextHops(d, neighbors, next, queue)
		for v := 0; v < n; v++ {
			if v == d || next[v] == -1 {
				continue
			}
			nodes[v].AddRoute(network.NodeID(d), network.NodeID(next[v]))
			installed++
		}
	}
	return installed
}

// RecomputeShortestPaths recomputes hop-count shortest-path next hops over
// the (possibly changed) adjacency and syncs every node's routing table
// with the result: newly reachable destinations gain routes, unreachable
// ones lose theirs, and changed next hops are rewritten in place. It
// returns the number of route-table entries that changed (added + removed
// + rerouted) — the route-flap count the mobility experiments report.
// Ties break toward the lowest-id next hop exactly like
// InstallShortestPaths, so recomputing over an unchanged graph changes
// nothing and returns 0.
func RecomputeShortestPaths(nodes []*network.Node, neighbors func(i int) []int) int {
	n := len(nodes)
	next := make([]int, n)
	queue := make([]int, n)
	changed := 0
	for d := 0; d < n; d++ {
		bfsNextHops(d, neighbors, next, queue)
		for v := 0; v < n; v++ {
			if v == d {
				continue
			}
			old, had := nodes[v].Route(network.NodeID(d))
			if next[v] == -1 {
				if had {
					nodes[v].DelRoute(network.NodeID(d))
					changed++
				}
				continue
			}
			if !had || old != network.NodeID(next[v]) {
				nodes[v].AddRoute(network.NodeID(d), network.NodeID(next[v]))
				changed++
			}
		}
	}
	return changed
}

// Distances returns the hop distance from src to every node over the given
// adjacency (-1 where unreachable) — the batch complement of
// InstallShortestPaths for callers that need reachability or path lengths
// without installing routes (the topology tests validate generated-mesh
// connectivity with it).
func Distances(n int, neighbors func(i int) []int, src int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 1, n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
