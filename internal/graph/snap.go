package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ScanEdges streams a whitespace- or tab-separated edge list — the format
// SNAP datasets ship in — calling fn for every edge without materializing
// the list.  Lines are "u v" or "u v w"; blank lines and lines starting
// with '#' or '%' are ignored; node IDs must be non-negative integers and
// explicit weights positive.  fn's hasW reports whether the line carried a
// weight.  A non-nil error from fn stops the scan and is returned as-is,
// so callers can batch, bound, or abort a replay.
func ScanEdges(r io.Reader, fn func(u, v int32, w float64, hasW bool) error) error {
	return ScanEdgesFiltered(r, nil, fn)
}

// KeepFunc selects edges during a filtered scan.  It sees each edge's
// endpoints exactly as the line spells them (u before v) and reports
// whether fn should receive the edge.
type KeepFunc func(u, v int32) bool

// ScanEdgesFiltered is ScanEdges restricted to the edges keep accepts
// (nil keeps everything).  Lines are parsed and validated either way, so
// a malformed line fails the scan regardless of the filter; only fn is
// skipped.  A partitioned build worker uses this to stream just the
// edges incident to its node range — the union of the workers' filtered
// streams is the full stream, each edge delivered exactly once as long
// as the keep predicates tile the edge set.
func ScanEdgesFiltered(r io.Reader, keep KeepFunc, fn func(u, v int32, w float64, hasW bool) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, ok := parsePair(sc.Bytes())
		w, hasW := 0.0, false
		if !ok {
			text := strings.TrimSpace(sc.Text())
			if text == "" || text[0] == '#' || text[0] == '%' {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) != 2 && len(fields) != 3 {
				return fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, text)
			}
			x, err := strconv.ParseInt(fields[0], 10, 32)
			if err != nil || x < 0 {
				return fmt.Errorf("graph: line %d: bad source node %q", lineNo, fields[0])
			}
			u = int32(x)
			if x, err = strconv.ParseInt(fields[1], 10, 32); err != nil || x < 0 {
				return fmt.Errorf("graph: line %d: bad target node %q", lineNo, fields[1])
			}
			v = int32(x)
			if len(fields) == 3 {
				w, err = strconv.ParseFloat(fields[2], 64)
				if err != nil || !ValidLength(w) {
					return fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
				}
				hasW = true
			}
		}
		if keep != nil && !keep(u, v) {
			continue
		}
		if err := fn(u, v, w, hasW); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading edge list: %w", err)
	}
	return nil
}

// parsePair parses a line that is exactly "u v" — two runs of at most 9
// ASCII digits, which fit in an int32, and one space — the common line,
// without the string and field slices of the general path; ok is false for
// every other line.
func parsePair(line []byte) (u, v int32, ok bool) {
	var id [2]int32
	f, digits := 0, 0
	for _, c := range line {
		switch {
		case '0' <= c && c <= '9' && digits < 9:
			id[f], digits = id[f]*10+int32(c-'0'), digits+1
		case c == ' ' && f == 0 && digits > 0:
			f, digits = 1, 0
		default:
			return 0, 0, false
		}
	}
	return id[0], id[1], f == 1 && digits > 0
}
