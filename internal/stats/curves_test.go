package stats

import (
	"math"
	"testing"
)

func TestReferenceCurves(t *testing.T) {
	if got := BasicCV(6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("BasicCV(6) = %g, want 0.5", got)
	}
	if !math.IsInf(BasicCV(2), 1) {
		t.Error("BasicCV(2) should be +Inf")
	}
	if got := HIPCV(3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("HIPCV(3) = %g, want 0.5", got)
	}
	if !math.IsInf(HIPCV(1), 1) {
		t.Error("HIPCV(1) should be +Inf")
	}
	// HIP bound is a factor sqrt(2) below basic asymptotically.
	ratio := BasicCV(100) / HIPCV(101)
	if math.Abs(ratio-math.Sqrt2) > 0.02 {
		t.Errorf("basic/HIP CV ratio = %g, want ~sqrt(2)", ratio)
	}
	if got := HIPBaseBCV(2, 1); math.Abs(got-HIPCV(2)) > 1e-12 {
		t.Error("HIPBaseBCV(b=1) should equal HIPCV")
	}
	if math.Abs(HLLCV(16)-0.27) > 0.005 {
		t.Errorf("HLLCV(16) = %g", HLLCV(16))
	}
	if math.Abs(HIPOnHLLCV(16)-0.2165) > 0.001 {
		t.Errorf("HIPOnHLLCV(16) = %g", HIPOnHLLCV(16))
	}
	if !math.IsInf(BasicMRE(2), 1) || !math.IsInf(HIPMRE(1), 1) || !math.IsInf(HIPBaseBCV(1, 2), 1) {
		t.Error("degenerate k should give +Inf reference curves")
	}
	if math.Abs(BasicMRE(10)-math.Sqrt(2/(math.Pi*8))) > 1e-12 {
		t.Error("BasicMRE(10) formula wrong")
	}
	if math.Abs(HIPMRE(10)-math.Sqrt(1/(math.Pi*9))) > 1e-12 {
		t.Error("HIPMRE(10) formula wrong")
	}
}
