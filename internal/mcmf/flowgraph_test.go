package mcmf

// The paper's §IV-B construction, kept as the differential oracle for the
// assignment solver: a general min-cost max-flow by successive shortest
// augmenting paths with Johnson potentials (Dijkstra on reduced costs over
// a binary heap), initialized by Bellman–Ford so negative edge costs are
// accepted. legacyAssign builds the auxiliary graph source → items →
// slots → sink on it.

import (
	"errors"
	"fmt"
	"math"
)

// Graph is a directed flow network under construction.
type Graph struct {
	n     int
	heads [][]int // adjacency: node -> arc indices (including residuals)
	to    []int
	cap   []int64
	cost  []float64
}

// NewGraph creates a flow network with n nodes (0..n-1).
func NewGraph(n int) (*Graph, error) {
	if n <= 0 {
		return nil, errors.New("mcmf: need at least one node")
	}
	return &Graph{n: n, heads: make([][]int, n)}, nil
}

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost, returning its arc id (usable with Flow after solving).
func (g *Graph) AddEdge(u, v int, capacity int64, cost float64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("mcmf: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("mcmf: negative capacity %d", capacity)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("mcmf: invalid cost %v", cost)
	}
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.heads[u] = append(g.heads[u], id)
	g.heads[v] = append(g.heads[v], id^1)
	return id, nil
}

// Result reports a solved flow.
type Result struct {
	// Total is the total units pushed from source to sink.
	Total int64
	// Cost is the total cost of the flow.
	Cost float64
	// arcFlow[id] = flow on the arc with that id.
	arcFlow []int64
}

// Flow returns the flow routed over the arc with the given id.
func (r *Result) Flow(arcID int) int64 {
	if arcID < 0 || arcID >= len(r.arcFlow) {
		return 0
	}
	return r.arcFlow[arcID]
}

type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist. It mirrors container/heap's sift
// algorithms exactly (same swaps, same pop order on ties) but with a
// concrete element type, so pushes don't box through interface{} — the
// boxing was one allocation per relaxed edge on the hot path.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// scratch holds every per-solve buffer MinCostFlow needs. A fresh zero
// value works; a recycled one avoids the allocations.
type scratch struct {
	origCap   []int64
	potential []float64
	dist      []float64
	prevArc   []int
	visited   []bool
	q         pq
	arcFlow   []int64
}

// MinCostFlow pushes up to maxFlow units from s to t (use math.MaxInt64 for
// a max-flow), minimizing total cost. The graph's capacities are consumed;
// build a fresh graph per solve.
func (g *Graph) MinCostFlow(s, t int, maxFlow int64) (*Result, error) {
	return g.minCostFlow(&scratch{}, s, t, maxFlow)
}

// minCostFlow is MinCostFlow running over caller-supplied scratch buffers.
// The returned Result references sc.arcFlow, so the Result must be consumed
// before sc is reused.
func (g *Graph) minCostFlow(sc *scratch, s, t int, maxFlow int64) (*Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return nil, fmt.Errorf("mcmf: source/sink out of range")
	}
	if s == t {
		return nil, errors.New("mcmf: source equals sink")
	}
	if maxFlow < 0 {
		return nil, errors.New("mcmf: negative flow request")
	}

	sc.origCap = grow(sc.origCap, len(g.cap))
	origCap := sc.origCap
	copy(origCap, g.cap)

	sc.potential = grow(sc.potential, g.n)
	potential := sc.potential
	for i := range potential {
		potential[i] = 0
	}
	sc.dist = grow(sc.dist, g.n)
	// Bellman–Ford to initialize potentials (handles negative costs).
	if g.hasNegativeCost() {
		dist := sc.dist
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[s] = 0
		for iter := 0; iter < g.n; iter++ {
			changed := false
			for u := 0; u < g.n; u++ {
				if math.IsInf(dist[u], 1) {
					continue
				}
				for _, id := range g.heads[u] {
					if g.cap[id] <= 0 {
						continue
					}
					v := g.to[id]
					if nd := dist[u] + g.cost[id]; nd < dist[v]-1e-12 {
						dist[v] = nd
						changed = true
						if iter == g.n-1 {
							return nil, errors.New("mcmf: negative cycle detected")
						}
					}
				}
			}
			if !changed {
				break
			}
		}
		for i := range potential {
			if !math.IsInf(dist[i], 1) {
				potential[i] = dist[i]
			}
		}
	}

	res := &Result{}
	dist := sc.dist
	sc.prevArc = grow(sc.prevArc, g.n)
	prevArc := sc.prevArc
	sc.visited = grow(sc.visited, g.n)
	visited := sc.visited

	for res.Total < maxFlow {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			visited[i] = false
			prevArc[i] = -1
		}
		dist[s] = 0
		sc.q = append(sc.q[:0], pqItem{node: s})
		q := &sc.q
		for len(*q) > 0 {
			it := q.pop()
			u := it.node
			if visited[u] {
				continue
			}
			visited[u] = true
			for _, id := range g.heads[u] {
				if g.cap[id] <= 0 {
					continue
				}
				v := g.to[id]
				rc := g.cost[id] + potential[u] - potential[v]
				if rc < 0 {
					rc = 0 // guard tiny negative residuals from float error
				}
				if nd := dist[u] + rc; nd < dist[v]-1e-15 {
					dist[v] = nd
					prevArc[v] = id
					q.push(pqItem{node: v, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break // no augmenting path
		}
		for i := 0; i < g.n; i++ {
			if !math.IsInf(dist[i], 1) {
				potential[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := maxFlow - res.Total
		for v := t; v != s; {
			id := prevArc[v]
			if g.cap[id] < push {
				push = g.cap[id]
			}
			v = g.to[id^1]
		}
		for v := t; v != s; {
			id := prevArc[v]
			g.cap[id] -= push
			g.cap[id^1] += push
			res.Cost += g.cost[id] * float64(push)
			v = g.to[id^1]
		}
		res.Total += push
	}

	sc.arcFlow = grow(sc.arcFlow, len(g.cap))
	res.arcFlow = sc.arcFlow
	for id := 0; id < len(g.cap); id += 2 {
		res.arcFlow[id] = origCap[id] - g.cap[id]
		res.arcFlow[id^1] = 0
	}
	return res, nil
}

func (g *Graph) hasNegativeCost() bool {
	for id := 0; id < len(g.cost); id += 2 {
		if g.cost[id] < 0 {
			return true
		}
	}
	return false
}
