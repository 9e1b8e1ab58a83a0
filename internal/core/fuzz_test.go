package core

import (
	"bytes"
	"testing"

	"adsketch/internal/graph"
)

// addDamaged seeds f with a valid file, four truncations of it and one
// byte flip.
func addDamaged(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{5, 9, 13, len(valid) / 2} {
		f.Add(valid[:cut])
	}
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
}

// FuzzReadSet: whatever the stream reader accepts — whole set or
// partition — is a fixed point of the writer: it re-serializes, reads
// back, and re-serializes to the same bytes.  The seeds include files of
// earlier releases, which it refuses; internal/legacy's FuzzReadSet reads
// them, the upgrade path of adsconvert under hostile input.
func FuzzReadSet(f *testing.F) {
	files := v3Files(f)
	addDamaged(f, files["weighted-partition"])
	addDamaged(f, legacyV3(f, files["weighted-partition"]))
	for _, name := range v2Fixtures {
		addDamaged(f, readLegacyFixture(f, name))
	}
	f.Add([]byte("ADSK"))
	f.Add([]byte{})
	f.Add(nanV2())
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadSketchSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := v3Bytes(t, set)
		set, err = ReadSketchSet(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("the writer's output of an accepted file is refused: %v", err)
		}
		if !bytes.Equal(v3Bytes(t, set), first) {
			t.Fatal("an accepted file is not a fixed point of write and read")
		}
	})
}

// FuzzReadSketchSet: arbitrary bytes must never panic the stream reader
// (of every kind); it either errors or yields a set
// whose sketches pass validation and answer estimator queries without
// panicking.
func FuzzReadSketchSet(f *testing.F) {
	// Seed with the version-3 file of every kind and the committed
	// version-2 files, which it refuses, plus truncations and mutations of
	// each.
	for _, data := range v3Files(f) {
		addDamaged(f, data)
	}
	for _, name := range v2Fixtures {
		addDamaged(f, readLegacyFixture(f, name))
	}
	// The step code's own failure modes: counts, bits and steps that
	// disagree, and well-formed codes over invalid distances.
	_, hostile, _ := hostileStepFiles(f)
	for _, data := range hostile {
		f.Add(data)
	}
	// And the packed node column's: bits past the last ID, a column a word
	// off, IDs the set does not have, the smallest sets.
	small, hostile, _ := hostileNodeFiles(f)
	// And the compact columns': a dictionary that is not one, codes outside
	// it, offsets that are not offsets, bits past a column's last value,
	// counts that overflow.
	compact, lies, _ := hostileCompactFiles(f)
	for _, files := range []map[string][]byte{small, hostile, compact, lies} {
		for _, data := range files {
			f.Add(data)
		}
	}
	f.Add([]byte("ADSK"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSketchSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		for v := 0; v < got.NumNodes(); v++ {
			s := got.SketchOf(int32(v))
			// Whatever decoded must answer queries without panicking.
			_ = s.HIPEntries()
			_ = EstimateNeighborhoodHIP(s, 1.5)
		}
		// And it must re-serialize cleanly.
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing a decoded set: %v", err)
		}
	})
}

// FuzzBuildersAgree: Algorithm 1 — the hop kernel packed straight into
// the frame on an unweighted graph, the float kernel on small integer
// lengths — writes the bytes of the brute-force build at one worker and
// at three, whatever the graph (at most 40 nodes, directed or not), k in
// 1..6, and whether base-b ranks make ties.  The first three
// bytes choose n, the graph's kind and the options; every further pair
// (a triple, with lengths) is an arc.
func FuzzBuildersAgree(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{12, 1, 2, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 6, 7, 7, 8, 8, 6, 0, 9, 9, 10, 10, 11})
	f.Add([]byte{9, 2, 3, 0, 1, 2, 1, 2, 1, 2, 3, 3, 0, 3, 4, 4, 5, 1, 5, 6, 2, 6, 7, 1, 7, 8, 3})
	f.Add([]byte{40, 7, 0x1d, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22})
	f.Add([]byte{30, 12, 0x25, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 9, 7, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, kind, opts := int32(data[0])%40+1, data[1], data[2]
		directed, weighted := kind&1 != 0, kind&2 != 0
		o := Options{K: int(opts)%6 + 1, Seed: uint64(opts >> 4)}
		if kind&0x10 != 0 {
			o.BaseB = 2
		}
		b := graph.NewBuilder(int(n), directed)
		arc := 2
		if weighted {
			arc = 3
		}
		for rest := data[3:]; len(rest) >= arc; rest = rest[arc:] {
			if u, v := int32(rest[0])%n, int32(rest[1])%n; weighted {
				b.AddWeightedEdge(u, v, float64(rest[2]%4+1))
			} else {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		want := bruteForceSet(g, o)
		for _, workers := range []int{1, 3} {
			got, err := BuildSetParallel(g, o, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v3Bytes(t, got), v3Bytes(t, want)) {
				t.Fatalf("%+v, %d workers, n=%d directed=%v weighted=%v: Algorithm 1 differs from brute force",
					o, workers, n, directed, weighted)
			}
		}
	})
}
