package core

// SplitSpan exposes the builders' work split to the external tests.
var SplitSpan = splitSpan
