package graph

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList: arbitrary input must either parse into a graph whose
// round trip is stable, or return an error — never panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# comment\n0 1 2.5\n"))
	f.Add([]byte("0 1 2 3\n"))
	f.Add([]byte("a b\n"))
	f.Add([]byte(""))
	f.Add([]byte("9999999999999 1\n"))
	f.Add([]byte("0 1 -5\n"))
	f.Add([]byte("% note\n\n3 3\n"))
	f.Add([]byte("007 123456789\n1234567890 1\n+1 2\n1  2\n1\t2\n 1 2\n1 2\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkParsePair(t, line)
		}
		g, err := ReadEdgeList(bytes.NewReader(data), false)
		if err != nil {
			return
		}
		// A parsed graph must survive write + re-read unchanged.
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(strings.NewReader(sb.String()), false)
		if err != nil {
			t.Fatalf("re-read own output: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				g.NumNodes(), g.NumArcs(), g2.NumNodes(), g2.NumArcs())
		}
	})
}

// checkParsePair fails t unless parsePair takes line exactly when it is
// "u v" of two node IDs, and then to the IDs the general path parses.
func checkParsePair(t *testing.T, line []byte) {
	t.Helper()
	u, v, ok := parsePair(line)
	fields := strings.Split(string(line), " ")
	if !ok {
		if len(fields) == 2 && len(fields[0]) <= 9 && len(fields[1]) <= 9 &&
			strings.Trim(fields[0]+fields[1], "0123456789") == "" && fields[0] != "" && fields[1] != "" {
			t.Fatalf("parsePair refused %q", line)
		}
		return
	}
	x, err1 := strconv.ParseInt(fields[0], 10, 32)
	y, err2 := strconv.ParseInt(fields[1], 10, 32)
	if len(fields) != 2 || err1 != nil || err2 != nil || int32(x) != u || int32(y) != v {
		t.Fatalf("parsePair(%q) = %d, %d; the general path reads %q", line, u, v, fields)
	}
}

func TestParsePair(t *testing.T) {
	for _, line := range []string{
		"0 1", "007 123456789", "999999999 0", "1234567890 1", "+1 2", "-1 2",
		"1  2", "1\t2", " 1 2", "1 2 ", "1 2\r", "1 2 3", "1", "", "a b", "1 b",
	} {
		checkParsePair(t, []byte(line))
	}
}
