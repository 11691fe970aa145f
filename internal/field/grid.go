package field

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Grid is a spatial index bucketing node positions into square cells of
// side equal to the query radius, so a range query inspects at most the
// 3×3 surrounding cells.
type Grid struct {
	field    Field
	cellSize float64
	cols     int
	rows     int
	cells    [][]int // node indices per cell
	pos      []Point
}

// NewGrid indexes the given positions for range queries of radius r.
func NewGrid(f Field, positions []Point, r float64) (*Grid, error) {
	if r <= 0 {
		return nil, fmt.Errorf("field: query radius %v must be positive", r)
	}
	cols := int(f.Width/r) + 1
	rows := int(f.Height/r) + 1
	g := &Grid{
		field:    f,
		cellSize: r,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int, cols*rows),
		pos:      make([]Point, len(positions)),
	}
	copy(g.pos, positions)
	for i, p := range g.pos {
		c := g.cellOf(p)
		g.cells[c] = append(g.cells[c], i)
	}
	return g, nil
}

func (g *Grid) cellOf(p Point) int {
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Len returns the number of indexed nodes.
func (g *Grid) Len() int { return len(g.pos) }

// Position returns the indexed position of node i.
func (g *Grid) Position(i int) Point { return g.pos[i] }

// WithinRange appends to dst the indices of all nodes within distance r of
// node i (excluding i itself), where r is the radius the grid was built
// with, and returns the extended slice.
func (g *Grid) WithinRange(dst []int, i int) []int {
	p := g.pos[i]
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
				continue
			}
			for _, j := range g.cells[y*g.cols+x] {
				if j != i && p.Dist(g.pos[j]) <= g.cellSize {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// Graph is an undirected adjacency-list graph over node indices.
type Graph struct {
	Adj [][]int
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nbrs := range g.Adj {
		total += len(nbrs)
	}
	return total / 2
}

// AvgDegree returns the mean number of neighbors per node (the paper's g).
func (g *Graph) AvgDegree() float64 {
	if len(g.Adj) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.Adj))
}

// PhysicalGraph builds the physical-neighbor graph: an edge joins every
// pair of nodes within transmission range r.
func PhysicalGraph(f Field, positions []Point, r float64) (*Graph, error) {
	grid, err := NewGrid(f, positions, r)
	if err != nil {
		return nil, err
	}
	g := &Graph{Adj: make([][]int, len(positions))}
	for i := range positions {
		g.Adj[i] = grid.WithinRange(nil, i)
	}
	return g, nil
}

// HopDistance returns the hop distance from src to dst, capped at maxHops;
// ok is false when dst is unreachable within the cap. The direct edge
// (src,dst), if present, may be excluded — M-NDP looks for an *indirect*
// path between two physical neighbors. Adj must be symmetric, as in any
// undirected Graph; its order does not matter. Concurrent calls are safe
// while no one modifies the graph.
func (g *Graph) HopDistance(src, dst, maxHops int, excludeDirect bool) (int, bool) {
	if src == dst {
		return 0, true
	}
	if maxHops < 1 {
		return 0, false
	}
	s := hopScratchPool.Get().(*hopScratch)
	defer hopScratchPool.Put(s)
	if maxHops <= 2 {
		return g.withinTwoHops(s, src, dst, maxHops, excludeDirect)
	}
	return g.bidirectionalHops(s, src, dst, maxHops, excludeDirect)
}

// hopScratch is HopDistance's reusable working memory. Node v is in side
// i's visited set (i = 0 grows from src, 1 from dst) when seen[i][v] ==
// epoch, at dist[i][v] hops from that side's root; bumping epoch empties
// every set at once.
type hopScratch struct {
	epoch int32
	seen  [2][]int32
	dist  [2][]int32
	front [2][]int32
	next  []int32
}

var hopScratchPool = sync.Pool{New: func() any { return new(hopScratch) }}

// begin readies s for a graph of n nodes and returns the call's epoch.
func (s *hopScratch) begin(n int) int32 {
	if len(s.seen[0]) < n {
		for i := range s.seen {
			s.seen[i] = make([]int32, n)
			s.dist[i] = make([]int32, n)
		}
		s.epoch = 0
	}
	if s.epoch == math.MaxInt32 {
		for i := range s.seen {
			clear(s.seen[i])
		}
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// withinTwoHops answers maxHops ≤ 2: a direct edge, or a common neighbor
// other than the endpoints themselves.
func (g *Graph) withinTwoHops(s *hopScratch, src, dst, maxHops int, excludeDirect bool) (int, bool) {
	if !excludeDirect && slices.Contains(g.Adj[src], dst) {
		return 1, true
	}
	if maxHops < 2 {
		return 0, false
	}
	epoch := s.begin(len(g.Adj))
	mark := s.seen[0]
	for _, w := range g.Adj[src] {
		if w != src && w != dst {
			mark[w] = epoch
		}
	}
	for _, w := range g.Adj[dst] {
		if mark[w] == epoch {
			return 2, true
		}
	}
	return 0, false
}

// bidirectionalHops answers maxHops ≥ 3 with a level-synchronous BFS from
// both ends, always growing the smaller frontier by one level. Every
// meeting is seen when its node is first reached from the second side, so
// before a level the two balls are disjoint and the distance exceeds
// kf+kb; the level that first meets therefore yields the distance, taken
// as the minimum over all of that level's meetings.
func (g *Graph) bidirectionalHops(s *hopScratch, src, dst, maxHops int, excludeDirect bool) (int, bool) {
	epoch := s.begin(len(g.Adj))
	var levels [2]int
	for i, root := range [2]int{src, dst} {
		s.seen[i][root] = epoch
		s.dist[i][root] = 0
		s.front[i] = append(s.front[i][:0], int32(root))
	}
	for levels[0]+levels[1] < maxHops {
		i := 0
		if len(s.front[1]) < len(s.front[0]) {
			i = 1
		}
		seen, dist := s.seen[i], s.dist[i]
		otherSeen, otherDist := s.seen[1-i], s.dist[1-i]
		level := int32(levels[i] + 1)
		best := int32(math.MaxInt32)
		next := s.next[:0]
		for _, u := range s.front[i] {
			for _, v := range g.Adj[u] {
				if excludeDirect && (int(u) == src && v == dst || int(u) == dst && v == src) {
					continue
				}
				if seen[v] == epoch {
					continue
				}
				seen[v] = epoch
				dist[v] = level
				if otherSeen[v] == epoch {
					best = min(best, level+otherDist[v])
				}
				next = append(next, int32(v))
			}
		}
		s.next, s.front[i] = s.front[i], next
		levels[i]++
		if best != math.MaxInt32 {
			return int(best), true
		}
		if len(next) == 0 {
			return 0, false
		}
	}
	return 0, false
}
