package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func frontierCorpus() []*FrontierFrame {
	return []*FrontierFrame{
		{Kind: FrontierKindUniform, Round: 0, Groups: [][]FrontierCandidate{
			{{Target: 3, Node: 0, Dist: 1, Rank: 0.25}},
			nil,
			{{Target: 9, Node: 2, Dist: 2, Rank: 0.5}, {Target: 9, Node: 4, Dist: 1, Rank: 0.75}},
		}},
		{Kind: FrontierKindWeighted, Round: 2, Groups: [][]FrontierCandidate{
			{{Target: 1, Node: 7, Dist: 0.5, Rank: 1.25, Beta: 3.5}},
		}},
		{Kind: FrontierKindApprox, Round: 1, Groups: [][]FrontierCandidate{
			{{Target: 0, Node: 1, Dist: 1, Rank: 0.125}},
			{{Target: 5, Node: 6, Dist: 2, Rank: 0.5}},
		}},
		{Kind: FrontierKindUniform, Round: 9, Groups: nil},
	}
}

func TestFrontierFrameRoundTrip(t *testing.T) {
	for i, f := range frontierCorpus() {
		buf := Get()
		if err := EncodeFrontierFrame(buf, f); err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		got, err := DecodeFrontierFrame(buf.B)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if got.Kind != f.Kind || got.Round != f.Round || len(got.Groups) != len(f.Groups) {
			t.Fatalf("frame %d: envelope mismatch: %+v vs %+v", i, got, f)
		}
		for gi := range f.Groups {
			if len(f.Groups[gi]) == 0 && len(got.Groups[gi]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got.Groups[gi], f.Groups[gi]) {
				t.Fatalf("frame %d group %d: %+v vs %+v", i, gi, got.Groups[gi], f.Groups[gi])
			}
		}
		buf.Free()
	}
}

// TestFrontierApproxCarriesNoKey: an approximate candidate is a uniform
// one on the wire — the two frames differ in their kind word alone.
func TestFrontierApproxCarriesNoKey(t *testing.T) {
	approx := frontierCorpus()[2]
	uniform := *approx
	uniform.Kind = FrontierKindUniform
	var a, u Buf
	if err := EncodeFrontierFrame(&a, approx); err != nil {
		t.Fatal(err)
	}
	if err := EncodeFrontierFrame(&u, &uniform); err != nil {
		t.Fatal(err)
	}
	if len(a.B) != len(u.B) {
		t.Fatalf("approximate frame is %d bytes, the uniform one %d", len(a.B), len(u.B))
	}
	a.B[frameHdrSize] = FrontierKindUniform
	if !bytes.Equal(a.B, u.B) {
		t.Error("approximate and uniform frames differ beyond the kind word")
	}
}

func TestFrontierFrameRejects(t *testing.T) {
	buf := Get()
	defer buf.Free()
	if err := EncodeFrontierFrame(buf, &FrontierFrame{Kind: 7}); err == nil {
		t.Error("encode accepted an unknown kind")
	}
	if err := EncodeFrontierFrame(buf, frontierCorpus()[2]); err != nil {
		t.Fatal(err)
	}
	good := buf.B

	// Truncation anywhere in the frame fails cleanly.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeFrontierFrame(good[:cut]); err == nil {
			t.Fatalf("decoder accepted a frame truncated to %d of %d bytes", cut, len(good))
		}
	}
	// Trailing garbage is rejected by the body-length check.
	if _, err := DecodeFrontierFrame(append(append([]byte(nil), good...), 0xAB)); err == nil {
		t.Error("decoder accepted an oversized frame")
	}
	// Wrong message type, cleared batch flag, and a candidate count that
	// disagrees with the body are all rejected.
	mut := append([]byte(nil), good...)
	mut[5] = typeRequest
	binary.LittleEndian.PutUint32(mut[12:16], uint32(len(mut)-frameHdrSize))
	if _, err := DecodeFrontierFrame(mut); err == nil {
		t.Error("decoder accepted a request frame")
	}
	mut = append([]byte(nil), good...)
	mut[6] = 0
	binary.LittleEndian.PutUint32(mut[8:12], 1)
	if _, err := DecodeFrontierFrame(mut); err == nil {
		t.Error("decoder accepted a frontier frame without the batch flag")
	}
	mut = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(mut[8:12], 99)
	if _, err := DecodeFrontierFrame(mut); err == nil {
		t.Error("decoder accepted a frame whose count disagrees with its body")
	}
	// A corrupt group count cannot trigger a giant allocation.
	mut = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(mut[frameHdrSize+8:], 1<<30)
	if _, err := DecodeFrontierFrame(mut); err == nil {
		t.Error("decoder accepted a frame claiming 2^30 groups")
	}
}

func FuzzDecodeFrontierFrame(f *testing.F) {
	for _, fr := range frontierCorpus() {
		var buf Buf
		if err := EncodeFrontierFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.B...))
	}
	f.Add([]byte("ADSW"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrontierFrame(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode into a fixed point.
		var buf1, buf2 Buf
		if err := EncodeFrontierFrame(&buf1, fr); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		again, err := DecodeFrontierFrame(buf1.B)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		EncodeFrontierFrame(&buf2, again)
		if !bytes.Equal(buf1.B, buf2.B) {
			t.Fatalf("re-encode is not a fixed point:\n%x\n%x", buf1.B, buf2.B)
		}
	})
}
