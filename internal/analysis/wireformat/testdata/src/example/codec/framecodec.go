// Package codec is a wireformat fixture: the file name puts it in
// scope.
package codec

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

type frameHdr struct {
	Magic uint32
	Count uint32
}

type payload struct {
	A, B uint64
}

// reflectWrite uses the reflection-based encoder.
func reflectWrite(w io.Writer, h frameHdr) error {
	return binary.Write(w, binary.LittleEndian, h) // want `reflection-based binary.Write`
}

// reflectRead uses the reflection-based decoder.
func reflectRead(r io.Reader, h *frameHdr) error {
	return binary.Read(r, binary.LittleEndian, h) // want `reflection-based binary.Read`
}

// wrongOrder writes big-endian onto a little-endian wire.
func wrongOrder(buf []byte, v uint32) {
	binary.BigEndian.PutUint32(buf, v) // want `binary.BigEndian in wire-format code`
}

// hostOrder depends on the host byte order.
func hostOrder(buf []byte, v uint32) {
	binary.NativeEndian.PutUint32(buf, v) // want `binary.NativeEndian in wire-format code`
}

// probeOrder is the sanctioned probe: the suppression documents why.
func probeOrder(buf []byte, v uint32) {
	//adsvet:ignore wireformat byte-order probe comparing host order against LE, not wire encoding
	binary.NativeEndian.PutUint32(buf, v)
}

// unkeyedHeader initializes a wire header positionally.
func unkeyedHeader() frameHdr {
	return frameHdr{0xAD5, 2} // want `unkeyed fields in wire-header literal frameHdr`
}

// keyedHeader is the required form.
func keyedHeader() frameHdr {
	return frameHdr{Magic: 0xAD5, Count: 2}
}

// explicitEncode is the v3 idiom: explicit offsets, explicit LE.
func explicitEncode(h frameHdr) []byte {
	var buf bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[0:4], h.Magic)
	binary.LittleEndian.PutUint32(tmp[4:8], h.Count)
	buf.Write(tmp[:])
	return buf.Bytes()
}

// unkeyedPlain is fine: payload is not a wire-header type.
func unkeyedPlain() payload {
	return payload{1, 2}
}

// hostLittleEndian stands for the host byte-order probe.
var hostLittleEndian = true

// u64Bytes is a raw byte view of a typed column: the wire's bytes only
// on a little-endian host.
func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// guardedColumn is the required form: raw on little-endian hosts,
// explicit little-endian words otherwise.
func guardedColumn(w io.Writer, words []uint64) error {
	if hostLittleEndian && len(words) > 0 {
		_, err := w.Write(u64Bytes(words))
		return err
	}
	buf := make([]byte, 8*len(words))
	for i, x := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], x)
	}
	_, err := w.Write(buf)
	return err
}

// unguardedColumn writes host memory whatever the host.
func unguardedColumn(w io.Writer, words []uint64) error {
	_, err := w.Write(u64Bytes(words)) // want `raw column write u64Bytes without a byte-order guard`
	return err
}

// wrongBranch reaches the raw view on the big-endian side.
func wrongBranch(w io.Writer, words []uint64) error {
	if hostLittleEndian {
		return nil
	} else {
		_, err := w.Write(u64Bytes(words)) // want `raw column write u64Bytes without a byte-order guard`
		return err
	}
}

// packedColumn is the shape of the bit-packed node column: a partition's
// bits shifted down to bit 0 of a vector of their own, which is then a
// column of words like any other and goes out through the guard.
func packedColumn(w io.Writer, words []uint64, shift uint) error {
	out := make([]uint64, len(words))
	for i, x := range words {
		out[i] = x >> shift
	}
	return guardedColumn(w, out)
}

// packedColumnRaw writes the words it has just assembled as they lie in
// memory: assembled here or not, they are host-order.
func packedColumnRaw(w io.Writer, words []uint64, shift uint) error {
	out := make([]uint64, len(words))
	for i, x := range words {
		out[i] = x >> shift
	}
	_, err := w.Write(u64Bytes(out)) // want `raw column write u64Bytes without a byte-order guard`
	return err
}

// packedOffsets is the shape of the packed offsets column: a partition's
// window on its parent's offsets rebased to 0 and packed again at the
// width its own entry count needs — words assembled for the write, and so
// through the guard like the frame's own.
func packedOffsets(w io.Writer, offs []uint64, base uint64, width uint) error {
	out := make([]uint64, (uint(len(offs))*width+63)/64)
	for i, o := range offs {
		bit := uint(i) * width
		out[bit/64] |= (o - base) << (bit % 64)
		if bit%64+width > 64 {
			out[bit/64+1] |= (o - base) >> (64 - bit%64)
		}
	}
	return guardedColumn(w, out)
}

// f64Bytes is the raw byte view of a float column.
func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// codedSteps is the shape of the dictionary-coded step column: the packed
// codes, then the dictionary of distances they index.  Both are columns of
// words; the dictionary's raw view stays inside the little-endian branch.
func codedSteps(w io.Writer, codes []uint64, dict []float64) error {
	if err := guardedColumn(w, codes); err != nil {
		return err
	}
	if hostLittleEndian {
		_, err := w.Write(f64Bytes(dict))
		return err
	}
	buf := make([]byte, 8*len(dict))
	for i, d := range dict {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(d))
	}
	_, err := w.Write(buf)
	return err
}

// codedStepsRaw takes the dictionary for too small to matter: six floats
// in host order are six floats a big-endian host writes backwards.
func codedStepsRaw(w io.Writer, codes []uint64, dict []float64) error {
	if err := guardedColumn(w, codes); err != nil {
		return err
	}
	_, err := w.Write(f64Bytes(dict)) // want `raw column write f64Bytes without a byte-order guard`
	return err
}
