// Package legacy is a detorder fixture standing in for the decoder of
// older sketch files (its import path suffix-matches the analyzer scope;
// neither "internal/core" nor "internal/distbuild" does).  A converted
// file must be byte-identical run to run, so map iteration must never
// decide the order of what the decoder hands to the writer.
package legacy

import "sort"

type entry struct {
	Node int32
	Dist float64
}

// listsFromMap drains per-node lists in map order: the frozen set, and
// so the converted file, would differ from run to run.
func listsFromMap(byNode map[int32][]entry) [][]entry {
	var lists [][]entry
	for _, l := range byNode {
		lists = append(lists, l) // want `appends to lists in map-iteration order without sorting`
	}
	return lists
}

// nodesSorted restores node order before anything consumes it.
func nodesSorted(byNode map[int32][]entry) []int32 {
	var nodes []int32
	for v := range byNode {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}
