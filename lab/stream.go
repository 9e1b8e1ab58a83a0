package lab

import (
	"fmt"
	"math"

	"adsketch/internal/core"
	"adsketch/internal/rank"
)

// All-Distances Sketches over data streams (Section 3.1).
//
// A stream is a sequence of (element, time) entries.  Two time semantics
// replace graph distance:
//
//   - first occurrence: the "distance" of an element is the elapsed time
//     from the start of the stream to its first occurrence, emphasizing
//     early elements.  Elements arrive in increasing distance, so the ADS
//     is maintained exactly like a neighborhood scan (FirstOccurrenceADS).
//
//   - recency: the "distance" is the elapsed time from the most recent
//     occurrence to the current time, emphasizing recent elements
//     (appropriate for time-decaying statistics).  Entries arrive in
//     decreasing distance, so every new entry is inserted and older
//     entries are cleaned up (RecencyADS).

// FirstOccurrenceADS maintains a bottom-k ADS of the distinct elements of a
// stream keyed by elapsed time from the stream start to each element's
// first occurrence (Section 3.1, case (i)).  It is a BottomKDistinct over
// the prefix plus the log of every entry that modified it.
type FirstOccurrenceADS struct {
	c       *BottomKDistinct
	entries []core.Entry // canonical order: increasing time
	now     float64      // time of the last processed entry
}

// NewFirstOccurrenceADS returns an empty sketch with parameter k whose
// ranks derive from seed.
func NewFirstOccurrenceADS(k int, seed uint64) *FirstOccurrenceADS {
	return &FirstOccurrenceADS{c: NewBottomKDistinct(k, seed), now: math.Inf(-1)}
}

// K returns the sketch parameter.
func (s *FirstOccurrenceADS) K() int { return s.c.k }

// Size returns the number of retained entries.
func (s *FirstOccurrenceADS) Size() int { return len(s.entries) }

// Entries returns the retained (element, first-occurrence-time) entries in
// time order; Node holds the element ID.
func (s *FirstOccurrenceADS) Entries() []core.Entry { return s.entries }

// Process feeds one stream entry (element id at time t) and reports whether
// the sketch was modified.  Times must be non-decreasing and not NaN, and
// id must fit in an int32, the width of an entry's Node.
func (s *FirstOccurrenceADS) Process(id int64, t float64) bool {
	checkElementID(id)
	s.now = advanceTime(s.now, t)
	if !s.c.Add(id) {
		return false
	}
	s.entries = append(s.entries, core.Entry{Node: int32(id), Dist: t, Rank: s.c.src.Rank(id)})
	return true
}

// DistinctCount returns the running HIP estimate of the number of distinct
// elements seen so far.
func (s *FirstOccurrenceADS) DistinctCount() float64 { return s.c.Estimate() }

// EstimateWithin returns the HIP estimate of the number of distinct
// elements whose first occurrence was at time <= t.  Entries that later
// fell out of the bottom-k still contributed their adjusted weight when
// accepted, so this uses the retained entries' weights only, recomputed by
// a canonical scan (matching the ADS HIP estimator).
func (s *FirstOccurrenceADS) EstimateWithin(t float64) float64 {
	var ranks []float64
	sum := 0.0
	for _, e := range s.entries {
		if e.Dist > t {
			break
		}
		if tau := kthOrOne(ranks, s.c.k); e.Rank < tau {
			sum += 1 / tau
			ranks = keepSmallest(ranks, e.Rank, s.c.k)
		}
	}
	return sum
}

// SizeEstimate is the unique unbiased cardinality estimator based solely on
// the number s of entries in a bottom-k ADS prefix (Lemma 8.1), such as a
// FirstOccurrenceADS's Size:
//
//	E_s = s                        for s < k
//	E_s = k(1+1/k)^(s-k+1) - 1     for s >= k.
//
// For k = 1 this gives 2^s - 1.
func SizeEstimate(k, s int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("lab: SizeEstimate with k=%d", k))
	}
	if s < k {
		return float64(s)
	}
	e := float64(k)
	base := 1 + 1/float64(k)
	for i := 0; i < s-k+1; i++ {
		e *= base
	}
	return e - 1
}

// RecencyADS maintains a bottom-k ADS of distinct stream elements keyed by
// recency (Section 3.1, case (ii)): the distance of an element is T - t of
// its most recent occurrence, for a horizon T beyond the end of the
// stream.  Newest entries always enter; stale entries for the same element
// are replaced; entries whose rank stopped beating the threshold of closer
// (more recent) entries are cleaned up.
type RecencyADS struct {
	k       int
	horizon float64
	src     rank.Source
	entries []core.Entry // ascending distance T - t (most recent first)
	now     float64
}

// NewRecencyADS returns an empty recency sketch whose ranks derive from
// seed.  horizon must exceed every timestamp the stream will carry.
func NewRecencyADS(k int, horizon float64, seed uint64) *RecencyADS {
	if k < 1 {
		panic("stream: k must be >= 1")
	}
	return &RecencyADS{k: k, horizon: horizon, src: rank.NewSource(seed)}
}

// K returns the sketch parameter.
func (s *RecencyADS) K() int { return s.k }

// Size returns the number of retained entries.
func (s *RecencyADS) Size() int { return len(s.entries) }

// Process feeds one stream entry.  Times must be non-decreasing, not NaN
// and below the horizon, and id must fit in an int32, the width of an
// entry's Node.
func (s *RecencyADS) Process(id int64, t float64) {
	checkElementID(id)
	if t >= s.horizon {
		panic("stream: timestamp at or beyond the recency horizon")
	}
	s.now = advanceTime(s.now, t)
	d := s.horizon - t
	r := s.src.Rank(id)
	// Drop a previous occurrence of the same element (it is farther).
	for i, e := range s.entries {
		if e.Node == int32(id) {
			copy(s.entries[i:], s.entries[i+1:])
			s.entries = s.entries[:len(s.entries)-1]
			break
		}
	}
	// The newest entry has the smallest distance: prepend, then clean up
	// the suffix by the bottom-k rule (scan in increasing distance,
	// dropping entries whose rank is not below the k-th smallest rank of
	// strictly closer retained entries).
	s.entries = append([]core.Entry{{Node: int32(id), Dist: d, Rank: r}}, s.entries...)
	kept := s.entries[:1]
	ranks := []float64{r}
	for _, e := range s.entries[1:] {
		if e.Rank >= kthOrOne(ranks, s.k) {
			continue
		}
		ranks = keepSmallest(ranks, e.Rank, s.k)
		kept = append(kept, e)
	}
	s.entries = kept
}

// EstimateRecent returns the HIP estimate of the number of distinct
// elements whose most recent occurrence is within the last window time
// units (relative to the time of the last processed entry).
func (s *RecencyADS) EstimateRecent(window float64) float64 {
	cutoff := s.horizon - s.now + window
	var ranks []float64
	sum := 0.0
	for _, e := range s.entries {
		tau := kthOrOne(ranks, s.k)
		if e.Rank >= tau {
			continue
		}
		if e.Dist <= cutoff {
			sum += 1 / tau
		}
		ranks = keepSmallest(ranks, e.Rank, s.k)
	}
	return sum
}

// Validate checks the bottom-k invariant over the retained entries.
func (s *RecencyADS) Validate() error {
	var ranks []float64
	for _, e := range s.entries {
		if e.Rank >= kthOrOne(ranks, s.k) {
			return errInvalid{e}
		}
		ranks = keepSmallest(ranks, e.Rank, s.k)
	}
	return nil
}

// advanceTime returns t, the time of the next stream entry, refusing one
// that is NaN or before now, the time of the last: either would break the
// order the entries are kept in.
func advanceTime(now, t float64) float64 {
	if !(t >= now) {
		panic(fmt.Sprintf("stream: timestamp %g after %g: timestamps must be non-decreasing and not NaN", t, now))
	}
	return t
}

// checkElementID refuses an element ID that an entry's int32 Node would
// truncate into another element's.
func checkElementID(id int64) {
	if id != int64(int32(id)) {
		panic(fmt.Sprintf("stream: element ID %d does not fit in int32", id))
	}
}

type errInvalid struct{ e core.Entry }

func (e errInvalid) Error() string { return "stream: entry violates bottom-k invariant" }
