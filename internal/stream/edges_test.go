package stream

import (
	"errors"
	"testing"
)

// sliceSource replays a fixed edge slice.
type sliceSource struct {
	edges []Edge
	pos   int
}

func (s *sliceSource) Next() (Edge, bool) {
	if s.pos >= len(s.edges) {
		return Edge{}, false
	}
	s.pos++
	return s.edges[s.pos-1], true
}

func TestSliceSourceReplay(t *testing.T) {
	in := []Edge{{U: 1, V: 2}, {U: 2, V: 3, W: 1.5}, {U: 0, V: 4}}
	src := &sliceSource{edges: in}
	var got []Edge
	n, err := Replay(src, func(e Edge) error {
		got = append(got, e)
		return nil
	})
	if err != nil || n != len(in) {
		t.Fatalf("Replay: n=%d err=%v", n, err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], in[i])
		}
	}
	src.pos = 0
	if n, _ := Replay(src, func(Edge) error { return nil }); n != len(in) {
		t.Fatalf("Replay after Reset: n=%d", n)
	}
}

func TestReplayStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	src := &sliceSource{edges: []Edge{{U: 1, V: 2}, {U: 3, V: 4}}}
	n, err := Replay(src, func(Edge) error { return boom })
	if !errors.Is(err, boom) || n != 0 {
		t.Fatalf("Replay: n=%d err=%v", n, err)
	}
}

// TestRandomSourceDeterminism: the same seed must yield the same stream —
// the property ingest replay tests and benchmarks depend on.
func TestRandomSourceDeterminism(t *testing.T) {
	drain := func(seed uint64, weighted bool) []Edge {
		src, err := NewRandomSource(100, 500, weighted, seed)
		if err != nil {
			t.Fatalf("NewRandomSource: %v", err)
		}
		var out []Edge
		if _, err := Replay(src, func(e Edge) error { out = append(out, e); return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return out
	}
	a, b := drain(7, true), drain(7, true)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("stream lengths %d, %d; want 500", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs under the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := drain(8, true)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
	for i, e := range a {
		if e.U < 0 || e.U >= 100 || e.V < 0 || e.V >= 100 {
			t.Fatalf("edge %d out of node range: %+v", i, e)
		}
		if !(e.W >= 0.5 && e.W < 1.5) {
			t.Fatalf("edge %d weight out of [0.5,1.5): %+v", i, e)
		}
	}
	for i, e := range drain(3, false) {
		if e.W != 0 {
			t.Fatalf("unweighted stream edge %d carries weight: %+v", i, e)
		}
	}
}

func TestRandomSourceValidation(t *testing.T) {
	if _, err := NewRandomSource(0, 10, false, 1); err == nil {
		t.Fatal("NewRandomSource(0 nodes) succeeded")
	}
	if _, err := NewRandomSource(5, -1, false, 1); err == nil {
		t.Fatal("NewRandomSource(-1 edges) succeeded")
	}
}
