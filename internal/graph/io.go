package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// NodeLimit is the most nodes a graph of the given number of edges may
// span: max(2²⁰, 64 × edges).  Readers that size per-node arrays from the
// largest ID they see — ReadEdgeList, and the ingest maintainer as edges
// arrive — refuse IDs past it, so a graph's storage stays within a
// constant multiple of its input, and one edge naming node 2·10⁹ cannot
// ask for tens of gigabytes of per-node arrays.
func NodeLimit(edges int) int { return max(1<<20, 64*edges) }

// ReadEdgeList parses a whitespace-separated edge list: one edge per line as
// "u v" or "u v w", with '#' or '%' comment lines ignored.  Node IDs must be
// non-negative integers; the node count is one more than the largest ID
// seen, and must not exceed NodeLimit(edge lines).  The directed flag
// controls how edges are interpreted.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	type line struct {
		u, v int32
		w    float64
		hasW bool
	}
	var lines []line
	maxID := int32(-1)
	err := ScanEdges(r, func(u, v int32, w float64, hasW bool) error {
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		lines = append(lines, line{u: u, v: v, w: w, hasW: hasW})
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := int(maxID) + 1
	if limit := NodeLimit(len(lines)); n > limit {
		return nil, fmt.Errorf("graph: node ID %d needs %d nodes but %d edge lines allow at most %d (max(2^20, 64 per edge line)); relabel the IDs densely as 0..n-1",
			maxID, n, len(lines), limit)
	}
	b := NewBuilder(n, directed)
	for _, ln := range lines {
		if ln.hasW {
			b.AddWeightedEdge(ln.u, ln.v, ln.w)
		} else {
			b.AddEdge(ln.u, ln.v)
		}
	}
	return b.Build(), nil
}

// WriteEdgeList writes the graph as an edge list readable by ReadEdgeList.
// Undirected edges are written once (u <= v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d directed=%v weighted=%v\n",
		g.NumNodes(), g.NumEdges(), g.Directed(), g.Weighted()); err != nil {
		return err
	}
	var failed error
	selfSeen := make(map[int32]int)
	g.ForEachArc(func(u, v int32, wt float64) {
		if failed != nil {
			return
		}
		if !g.Directed() && u > v {
			return
		}
		if !g.Directed() && u == v {
			// An undirected self-loop is stored as two arcs; emit one
			// line per pair.
			selfSeen[u]++
			if selfSeen[u]%2 == 0 {
				return
			}
		}
		line := strconv.AppendInt(bw.AvailableBuffer(), int64(u), 10)
		line = strconv.AppendInt(append(line, ' '), int64(v), 10)
		if g.Weighted() {
			line = strconv.AppendFloat(append(line, ' '), wt, 'g', -1, 64)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	return bw.Flush()
}
