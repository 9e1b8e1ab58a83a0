// Package lab holds the paper's evaluation toolkits: the estimators and
// baselines its sections measure HIP against, outside the serving
// system.  The root package adsketch builds, serves and ingests
// sketches; lab is what the examples, the figures command and the
// experiments use to reproduce the paper's claims, and no serving binary
// links it.
//
// Each type maps to a section of the paper:
//
//   - Sections 2 and 4, MinHash sketches and their basic estimators:
//     BottomKDistinct, KMinsDistinct and KPartitionDistinct hold the one
//     MinHash sketch of each flavor over full-precision ranks, and
//     BasicEstimate reads it with the flavor's Section 4 estimator (the
//     internal/sketch formula over the sketch's minima).
//   - Sections 2 and 5, the k-mins and k-partition ADS, which the serving
//     system does not build: KMinsADS (BuildKMins, k bottom-1
//     adsketch.Builds) and KPartitionADS (BuildKPartition), with their
//     Section 4 readout and their HIP weights (equations (7) and (8)).
//   - Section 3, the node-centric DP construction on unweighted graphs:
//     BuildDP, hop-distance rounds that build the set adsketch.Build
//     does (Algorithm 1), byte for byte, far more slowly; and the
//     (1+ε)-approximate ADS: BuildApprox, the synchronized rounds of
//     LocalUpdates under the relaxed rule, in arrival order.
//   - Section 3.1, ADS over data streams: FirstOccurrenceADS (distance =
//     time of first occurrence; a BottomKDistinct plus the log of the
//     entries that modified it) and RecencyADS (distance = time since the
//     most recent occurrence).
//   - Section 8, Lemma 8.1: SizeEstimate, the cardinality estimate from
//     the number of entries of a bottom-k ADS prefix alone.
//   - Appendix A, ADS without tie breaking: NoTieADS, which keeps at most
//     k entries per distinct distance.
//   - Section 6, HIP distinct counters: the same three types, whose
//     Estimate is the HIP register grown on each sketch update;
//     HIPDistinct, the HIP estimator on HyperLogLog registers
//     (Algorithm 3); HyperLogLog, the baseline with raw and
//     bias-corrected readouts; and BaseBHIP, the same counter over base-b
//     ranks (with Section 5.6's (1+b)/2 variance factor).  All are
//     DistinctCounters.
//   - Section 7, approximate counters: Morris, with weighted Add and Merge.
//   - Appendix B.1, neighborhood functions: NeighborhoodFunction, the
//     ANF/HyperANF register DP with the basic (ANFBasic) or HIP (ANFHIP)
//     readout, and EffectiveDiameter and HarmonicFromBalls over its result.
//   - Section 1's applications, as references: Centrality answers
//     closeness, harmonic, decay, custom and distance-distribution
//     queries per call from any sketch set — the estimates
//     adsketch.Engine serves from its cache — beside the rank-agreement
//     measures TopOverlap and SpearmanRho.
//   - Exact baselines, the ground truth the estimates are measured
//     against, by traversal: ExactNeighborhoodSize,
//     ExactNeighborhoodFunction, ExactCloseness, ExactHarmonic,
//     ExactExponentialDecay and ExactTopCloseness.
//
// Every constructor takes the uint64 seed its randomness derives from
// (but NewNoTieADS: its OfferGroup takes each node's rank); sketches
// built with one seed share their ranks, so they merge.
package lab
