package ingest

import (
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
)

// BenchmarkInsertOverBase: edge insertions into a maintainer whose
// sketches all sit in a frozen base, so every offer scans the base's packed
// node column and step code rather than an overlay list.  Each iteration
// re-bases on the same frozen set and replays the same 64 edges.
func BenchmarkInsertOverBase(b *testing.B) {
	g := graph.PreferentialAttachment(4000, 5, 1)
	o := core.Options{K: 16, Seed: 42}
	base, err := core.BuildSet(g, o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(g, base)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for e := 0; e < 64; e++ {
			u, v := int32((e*977+13)%4000), int32((e*3331+7)%4000)
			if err := m.Insert(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}
