// Package index provides the spatial access methods the moving-object
// store and query layer use: a uniform grid index for streaming inserts
// and an STR-bulk-loaded R-tree for archival range and kNN queries, both
// behind one SpatialIndex interface so tests can check both against a
// linear scan on equal terms.
package index

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/geo"
)

// Item is an indexed element: a position with an opaque 64-bit payload
// (vessel MMSI, record offset…).
type Item struct {
	Pos geo.Point
	ID  uint64
}

// SpatialIndex answers range and nearest-neighbour queries over items.
type SpatialIndex interface {
	// Search appends the items inside r to dst and returns it.
	Search(r geo.Rect, dst []Item) []Item
	// Nearest returns up to k items closest to p, nearest first.
	Nearest(p geo.Point, k int) []Item
	// Len returns the number of indexed items.
	Len() int
}

// --- linear scan baseline ---------------------------------------------------

// Scan is the no-index baseline: brute force over a slice.
type Scan struct {
	Items []Item
}

// Search implements SpatialIndex.
func (s *Scan) Search(r geo.Rect, dst []Item) []Item {
	for _, it := range s.Items {
		if r.Contains(it.Pos) {
			dst = append(dst, it)
		}
	}
	return dst
}

// Nearest implements SpatialIndex.
func (s *Scan) Nearest(p geo.Point, k int) []Item {
	type cand struct {
		it Item
		d  float64
	}
	cands := make([]cand, 0, len(s.Items))
	for _, it := range s.Items {
		cands = append(cands, cand{it, geo.Distance(p, it.Pos)})
	}
	sort.Slice(cands, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: any consistent total order works, exactness not required
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].it.ID < cands[j].it.ID
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]Item, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].it
	}
	return out
}

// Len implements SpatialIndex.
func (s *Scan) Len() int { return len(s.Items) }

// --- uniform grid index -----------------------------------------------------

// GridIndex hashes items into equal-angle cells: O(1) inserts, making it
// the right structure for the live (streaming) picture.
type GridIndex struct {
	grid  geo.Grid
	cells map[geo.CellID][]Item
	count int
}

// NewGridIndex returns a grid index with the given cell size in degrees.
func NewGridIndex(cellDeg float64) *GridIndex {
	return &GridIndex{grid: geo.NewGrid(cellDeg), cells: make(map[geo.CellID][]Item)}
}

// Insert adds an item.
func (g *GridIndex) Insert(it Item) {
	c := g.grid.Cell(it.Pos)
	g.cells[c] = append(g.cells[c], it)
	g.count++
}

// Remove deletes the first item with the given ID in the cell of pos;
// it reports whether something was removed.
func (g *GridIndex) Remove(pos geo.Point, id uint64) bool {
	c := g.grid.Cell(pos)
	items := g.cells[c]
	for i, it := range items {
		if it.ID == id {
			items[i] = items[len(items)-1]
			g.cells[c] = items[:len(items)-1]
			g.count--
			if len(g.cells[c]) == 0 {
				delete(g.cells, c)
			}
			return true
		}
	}
	return false
}

// Search implements SpatialIndex.
func (g *GridIndex) Search(r geo.Rect, dst []Item) []Item {
	for _, c := range g.grid.CellsInRect(r, nil) {
		for _, it := range g.cells[c] {
			if r.Contains(it.Pos) {
				dst = append(dst, it)
			}
		}
	}
	return dst
}

// Nearest implements SpatialIndex via expanding ring search over cells.
func (g *GridIndex) Nearest(p geo.Point, k int) []Item {
	if k <= 0 || g.count == 0 {
		return nil
	}
	type cand struct {
		it Item
		d  float64
	}
	var cands []cand
	// Expand the search radius until we have k candidates whose distances
	// are certain (ring radius covers the k-th best distance).
	radius := cellSizeMeters(g.grid.SizeDeg, p.Lat)
	for {
		rect := geo.RectAround(p, radius)
		cands = cands[:0]
		for _, c := range g.grid.CellsInRect(rect, nil) {
			for _, it := range g.cells[c] {
				cands = append(cands, cand{it, geo.Distance(p, it.Pos)})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			//lint:ignore floateq sort tie-break: any consistent total order works, exactness not required
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].it.ID < cands[j].it.ID
		})
		if len(cands) >= k && cands[k-1].d <= radius {
			break
		}
		if len(cands) >= g.count {
			break
		}
		radius *= 2
		if radius > 4e7 { // circumference of the Earth: everything covered
			break
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]Item, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].it
	}
	return out
}

// Len implements SpatialIndex.
func (g *GridIndex) Len() int { return g.count }

func cellSizeMeters(sizeDeg, lat float64) float64 {
	m := geo.Radians(sizeDeg) * geo.EarthRadius
	if m < 1 {
		m = 1
	}
	return m
}

// --- STR-packed R-tree --------------------------------------------------------

const rtreeFanout = 16

// RTree is a static R-tree bulk-loaded with the Sort-Tile-Recursive
// packing: near-perfect node utilisation and tight bounding boxes, ideal
// for archival (read-mostly) data.
type RTree struct {
	root  *rnode
	count int
}

type rnode struct {
	bounds   geo.Rect
	children []*rnode // nil for leaves
	items    []Item   // set for leaves
}

// BuildRTree bulk-loads the items. The input slice is not retained.
func BuildRTree(items []Item) *RTree {
	t := &RTree{count: len(items)}
	if len(items) == 0 {
		return t
	}
	leaves := packLeaves(append([]Item(nil), items...))
	t.root = packUpward(leaves)
	return t
}

// packLeaves sorts items into vertical slices by longitude then latitude
// (the STR algorithm) and packs them into leaf nodes.
func packLeaves(items []Item) []*rnode {
	n := len(items)
	leafCount := (n + rtreeFanout - 1) / rtreeFanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * rtreeFanout

	sort.Slice(items, func(i, j int) bool { return items[i].Pos.Lon < items[j].Pos.Lon })
	var leaves []*rnode
	for s := 0; s < n; s += sliceSize {
		e := s + sliceSize
		if e > n {
			e = n
		}
		slice := items[s:e]
		sort.Slice(slice, func(i, j int) bool { return slice[i].Pos.Lat < slice[j].Pos.Lat })
		for ls := 0; ls < len(slice); ls += rtreeFanout {
			le := ls + rtreeFanout
			if le > len(slice) {
				le = len(slice)
			}
			leaf := &rnode{items: append([]Item(nil), slice[ls:le]...), bounds: geo.EmptyRect()}
			for _, it := range leaf.items {
				leaf.bounds = leaf.bounds.Extend(it.Pos)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packUpward packs nodes level by level until a single root remains.
func packUpward(nodes []*rnode) *rnode {
	for len(nodes) > 1 {
		sort.Slice(nodes, func(i, j int) bool {
			ci, cj := nodes[i].bounds.Center(), nodes[j].bounds.Center()
			//lint:ignore floateq pack-order comparator: any consistent total order works, exactness not required
			if ci.Lon != cj.Lon {
				return ci.Lon < cj.Lon
			}
			return ci.Lat < cj.Lat
		})
		var next []*rnode
		for s := 0; s < len(nodes); s += rtreeFanout {
			e := s + rtreeFanout
			if e > len(nodes) {
				e = len(nodes)
			}
			parent := &rnode{children: append([]*rnode(nil), nodes[s:e]...), bounds: geo.EmptyRect()}
			for _, c := range parent.children {
				parent.bounds = parent.bounds.Union(c.bounds)
			}
			next = append(next, parent)
		}
		nodes = next
	}
	return nodes[0]
}

// Search implements SpatialIndex.
func (t *RTree) Search(r geo.Rect, dst []Item) []Item {
	if t.root == nil {
		return dst
	}
	stack := []*rnode{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.bounds.Intersects(r) {
			continue
		}
		if n.children == nil {
			for _, it := range n.items {
				if r.Contains(it.Pos) {
					dst = append(dst, it)
				}
			}
			continue
		}
		if r.ContainsRect(n.bounds) {
			// Whole subtree qualifies: report without further tests.
			dst = reportAll(n, dst)
			continue
		}
		stack = append(stack, n.children...)
	}
	return dst
}

func reportAll(n *rnode, dst []Item) []Item {
	if n.children == nil {
		return append(dst, n.items...)
	}
	for _, c := range n.children {
		dst = reportAll(c, dst)
	}
	return dst
}

// nnEntry is a best-first search queue entry: either a node or an item.
type nnEntry struct {
	dist float64
	node *rnode
	item Item
	leaf bool
}

type nnQueue []nnEntry

func (q nnQueue) Len() int           { return len(q) }
func (q nnQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x any)        { *q = append(*q, x.(nnEntry)) }
func (q *nnQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Nearest implements SpatialIndex with the classic best-first (Hjaltason–
// Samet) traversal: admissible rectangle lower bounds guarantee exactness.
func (t *RTree) Nearest(p geo.Point, k int) []Item {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := &nnQueue{{dist: t.root.bounds.DistanceTo(p), node: t.root}}
	heap.Init(q)
	var out []Item
	for q.Len() > 0 && len(out) < k {
		e := heap.Pop(q).(nnEntry)
		if e.leaf {
			out = append(out, e.item)
			continue
		}
		n := e.node
		if n.children == nil {
			for _, it := range n.items {
				heap.Push(q, nnEntry{dist: geo.Distance(p, it.Pos), item: it, leaf: true})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(q, nnEntry{dist: c.bounds.DistanceTo(p), node: c})
		}
	}
	return out
}

// Len implements SpatialIndex.
func (t *RTree) Len() int { return t.count }
