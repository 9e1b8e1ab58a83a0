// Package kinds is a kindswitch fixture: a sketch-flavor enum, a set-kind
// enum over uint32, and a Request envelope with query pointer fields.
package kinds

import "errors"

type Flavor int

const (
	BottomK Flavor = iota
	KMins
	KPartition
)

var ErrUnsupportedQuery = errors.New("unsupported query")

// missingCase silently ignores BottomK.
func missingCase(f Flavor) string {
	switch f { // want `switch on Flavor is not exhaustive: missing BottomK`
	case KMins:
		return "kmins"
	case KPartition:
		return "kpartition"
	}
	return ""
}

// allCases covers every flavor.
func allCases(f Flavor) string {
	switch f {
	case BottomK:
		return "bottomk"
	case KMins:
		return "kmins"
	case KPartition:
		return "kpartition"
	}
	return ""
}

// withDefault routes unknown kinds explicitly.
func withDefault(f Flavor) (string, error) {
	switch f {
	case KMins:
		return "kmins", nil
	default:
		return "", ErrUnsupportedQuery
	}
}

// Kind is a set-kind enum over the uint32 a file header codes it in.
type Kind uint32

const (
	KindUniform Kind = iota
	KindWeighted
	KindApprox
)

// kindName forgets approximate sets.
func kindName(k Kind) string {
	switch k { // want `switch on Kind is not exhaustive: missing KindApprox`
	case KindUniform:
		return "uniform"
	case KindWeighted:
		return "weighted"
	}
	return ""
}

// kindCode covers every kind, one through a conversion.
func kindCode(k Kind) uint32 {
	switch k {
	case KindUniform, KindWeighted:
		return uint32(k)
	case Kind(2):
		return 2
	}
	return 0
}

// nonEnum switches on a plain int: not an enum, not checked.
func nonEnum(n int) string {
	switch n {
	case 1:
		return "one"
	}
	return ""
}

type ClosenessQuery struct{ Node int }
type ReachQuery struct{ Node int }
type DistanceQuery struct{ From, To int }
type TopKQuery struct{ K int }

// Request is the protocol envelope: exactly one query field is set.
type Request struct {
	Dataset   string
	Closeness *ClosenessQuery
	Reach     *ReachQuery
	Distance  *DistanceQuery
	TopK      *TopKQuery
}

// partialDispatch enumerates three of the four query kinds.
func partialDispatch(r *Request) string { // want `partialDispatch handles 3 of 4 Request query kinds \(missing TopK\)`
	switch {
	case r.Closeness != nil:
		return "closeness"
	case r.Reach != nil:
		return "reach"
	case r.Distance != nil:
		return "distance"
	}
	return ""
}

// fullDispatch enumerates every query kind.
func fullDispatch(r *Request) string {
	switch {
	case r.Closeness != nil:
		return "closeness"
	case r.Reach != nil:
		return "reach"
	case r.Distance != nil:
		return "distance"
	case r.TopK != nil:
		return "topk"
	}
	return ""
}

// oneKind touches a single query field: handlers for one kind are fine.
func oneKind(r *Request) int {
	if r.Closeness != nil {
		return r.Closeness.Node
	}
	return -1
}
