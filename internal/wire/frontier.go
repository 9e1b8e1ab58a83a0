package wire

import "fmt"

// Frontier frames carry one round of distributed-build candidate
// exchange: for each destination worker, the (target, node, dist, rank)
// candidates its partition must consider next round.  They reuse the
// query protocol's frame envelope with message type 3 and the batch
// flag always set; the message count field holds the total candidate
// count across all groups so a reader can size its buffers before
// touching the body.
//
// Body layout after the 16-byte frame header (little-endian):
//
//	u32 kind          (0 = uniform, 1 = weighted, 2 = approx)
//	u32 round         (the BSP round these candidates were generated in)
//	u32 numGroups     (destination workers, in worker-index order)
//	per group:
//	  u32 count
//	  per candidate:
//	    i32 target, i32 node, f64 dist, f64 rank
//	    f64 beta                      (weighted builds only)
//
// The weighted trailer carries the candidate node's weight β, so no
// worker needs the global weight vector.  An approximate candidate is a
// uniform one: every worker applies its inbox in the one canonical
// order, so nothing about its schedule travels with it.
const typeFrontier = 3

// FrontierKind* mirror the distbuild kind codes carried in the frame.
const (
	FrontierKindUniform  = 0
	FrontierKindWeighted = 1
	FrontierKindApprox   = 2
)

// FrontierCandidate is one relaxation candidate in flight between
// partitions: Target's sketch should consider holding Node at distance
// Dist with rank Rank.  Beta is meaningful only in weighted builds.
type FrontierCandidate struct {
	Target int32
	Node   int32
	Dist   float64
	Rank   float64
	Beta   float64
}

// FrontierFrame is one decoded exchange payload: Groups[i] holds the
// candidates destined for worker i, in the order the sender emitted
// them.
type FrontierFrame struct {
	Kind   int
	Round  int
	Groups [][]FrontierCandidate
}

func (f *FrontierFrame) totalCandidates() int {
	n := 0
	for _, g := range f.Groups {
		n += len(g)
	}
	return n
}

// EncodeFrontierFrame replaces b's contents with one frontier frame.
func EncodeFrontierFrame(b *Buf, f *FrontierFrame) error {
	if f.Kind < FrontierKindUniform || f.Kind > FrontierKindApprox {
		return fmt.Errorf("wire: unknown frontier kind %d", f.Kind)
	}
	dst := beginFrame(b.B[:0], typeFrontier, flagBatch, uint32(f.totalCandidates()))
	dst = appendU32(dst, uint32(f.Kind))
	dst = appendU32(dst, uint32(f.Round))
	dst = appendU32(dst, uint32(len(f.Groups)))
	for _, g := range f.Groups {
		dst = appendU32(dst, uint32(len(g)))
		for i := range g {
			c := &g[i]
			dst = appendU32(dst, uint32(c.Target))
			dst = appendU32(dst, uint32(c.Node))
			dst = appendF64(dst, c.Dist)
			dst = appendF64(dst, c.Rank)
			if f.Kind == FrontierKindWeighted {
				dst = appendF64(dst, c.Beta)
			}
		}
	}
	b.B = endFrame(dst)
	return nil
}

// DecodeFrontierFrame decodes one frontier frame, validating every
// count against the bytes present before allocating.
func DecodeFrontierFrame(data []byte) (*FrontierFrame, error) {
	n, batch, body, err := parseFrame(data, typeFrontier)
	if err != nil {
		return nil, err
	}
	if !batch {
		return nil, fmt.Errorf("wire: frontier frames must set the batch flag")
	}
	r := &reader{b: body}
	kind := r.u32()
	if r.err == nil && kind > FrontierKindApprox {
		r.fail("unknown frontier kind %d", kind)
	}
	round := r.u32()
	f := &FrontierFrame{Kind: int(kind), Round: int(round)}
	// A candidate spends at least target+node+dist+rank = 24 bytes.
	elem := 24
	if f.Kind == FrontierKindWeighted {
		elem += 8
	}
	numGroups := r.count(4, "frontier groups")
	f.Groups = make([][]FrontierCandidate, numGroups)
	total := 0
	for gi := 0; gi < numGroups && r.err == nil; gi++ {
		cnt := r.count(elem, "frontier group")
		g := make([]FrontierCandidate, cnt)
		for i := range g {
			g[i] = FrontierCandidate{
				Target: r.i32(),
				Node:   r.i32(),
				Dist:   r.f64(),
				Rank:   r.f64(),
			}
			if f.Kind == FrontierKindWeighted {
				g[i].Beta = r.f64()
			}
		}
		f.Groups[gi] = g
		total += cnt
	}
	if r.err == nil && total != n {
		r.fail("frontier frame claims %d candidates, body carries %d", n, total)
	}
	if err := r.finish("frontier frame"); err != nil {
		return nil, err
	}
	return f, nil
}
