package cluster

import (
	"testing"

	"adsketch/internal/core"
)

// TestSplitRangesTile pins that the split the router places nodes by
// (core.PartRange) tiles [0, n) with the i·n/P arithmetic, and that Plan
// routes every node to the partition whose range holds it.
func TestSplitRangesTile(t *testing.T) {
	for _, tc := range []struct{ total, parts int }{
		{1, 1}, {7, 3}, {20, 4}, {20, 7}, {1000, 16},
	} {
		next := int32(0)
		for i := 0; i < tc.parts; i++ {
			lo, hi, err := core.PartRange(i, tc.parts, tc.total)
			if err != nil {
				t.Fatalf("PartRange(%d, %d, %d): %v", i, tc.parts, tc.total, err)
			}
			if lo != next || hi <= lo {
				t.Fatalf("%d-way split of %d: range %d is [%d, %d) after %d", tc.parts, tc.total, i, lo, hi, next)
			}
			if want := int32(i * tc.total / tc.parts); lo != want {
				t.Fatalf("range %d starts at %d, want %d", i, lo, want)
			}
			next = hi
		}
		if next != int32(tc.total) {
			t.Fatalf("%d-way split of %d ends at %d", tc.parts, tc.total, next)
		}
		for v := 0; v < tc.total; v++ {
			subs := Plan([]int32{int32(v)}, tc.parts, tc.total)
			if len(subs) != 1 {
				t.Fatalf("Plan([%d]) = %+v, want one sub", v, subs)
			}
			lo, hi, _ := core.PartRange(subs[0].Shard, tc.parts, tc.total)
			if int32(v) < lo || int32(v) >= hi {
				t.Fatalf("Plan([%d]) routes to %d, whose range is [%d, %d)", v, subs[0].Shard, lo, hi)
			}
		}
	}
}

func TestSplitRangesErrors(t *testing.T) {
	if _, _, err := core.PartRange(0, 0, 10); err == nil {
		t.Fatal("a 0-way split of 10 nodes succeeded")
	}
	if _, _, err := core.PartRange(0, 4, 3); err == nil {
		t.Fatal("a 4-way split of 3 nodes succeeded")
	}
}
