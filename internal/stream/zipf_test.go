package stream

import "testing"

func TestZipfRangeAndDeterminism(t *testing.T) {
	a := NewZipf(1000, 1.1, 7)
	b := NewZipf(1000, 1.1, 7)
	for i := 0; i < 10000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatal("same seed diverged")
		}
		if x < 0 || x >= 1000 {
			t.Fatalf("element %d out of range", x)
		}
	}
	if a.n != 1000 {
		t.Error("universe size")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(10000, 1.2, 3)
	counts := make(map[int64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Element 0 should be by far the most frequent; the head should
	// dominate: top-10 elements should carry a large share.
	top := 0
	for id := int64(0); id < 10; id++ {
		top += counts[id]
	}
	if frac := float64(top) / draws; frac < 0.3 {
		t.Errorf("top-10 share = %.3f, want heavy head", frac)
	}
	// Frequencies should decay: f(0) > f(10) > f(100).
	if !(counts[0] > counts[10] && counts[10] > counts[100]) {
		t.Errorf("frequencies not decaying: %d %d %d", counts[0], counts[10], counts[100])
	}
}

func TestZipfExponentOne(t *testing.T) {
	z := NewZipf(100, 1, 5)
	seen := map[int64]bool{}
	for i := 0; i < 20000; i++ {
		seen[z.Next()] = true
	}
	// s=1 over a tiny universe should eventually touch most elements.
	if len(seen) < 80 {
		t.Errorf("only %d of 100 elements seen", len(seen))
	}
}

func TestZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty universe": func() { NewZipf(0, 1.1, 1) },
		"bad exponent":   func() { NewZipf(10, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
