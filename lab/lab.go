// Package lab holds the paper's evaluation toolkits: the estimators and
// baselines its sections measure HIP against, outside the serving
// system.  The root package adsketch builds, serves and ingests
// sketches; lab is what the examples, the figures command and the
// experiments use to reproduce the paper's claims, and no serving binary
// links it.
//
// Each type maps to a section of the paper:
//
//   - Section 3.1, ADS over data streams: FirstOccurrenceADS (distance =
//     time of first occurrence) and RecencyADS (distance = time since the
//     most recent occurrence).
//   - Section 6, HIP distinct counters: HIPDistinct, the HIP estimator on
//     HyperLogLog registers (Algorithm 3); HyperLogLog, the baseline with
//     raw and bias-corrected readouts; BaseBHIP, the same counter over
//     base-b ranks (with Section 5.6's (1+b)/2 variance factor); and
//     BottomKDistinct, KMinsDistinct and KPartitionDistinct over
//     full-precision ranks.  All are DistinctCounters.
//   - Section 7, approximate counters: Morris, with weighted Add and Merge.
//   - Appendix B.1, neighborhood functions: NeighborhoodFunction, the
//     ANF/HyperANF register DP with the basic (ANFBasic) or HIP (ANFHIP)
//     readout, and EffectiveDiameter and HarmonicFromBalls over its result.
//   - Section 1's applications, as references: Centrality answers
//     closeness, harmonic, decay, custom and distance-distribution
//     queries per call from any sketch set — the estimates
//     adsketch.Engine serves from its cache — beside the exact baselines
//     ExactTopCloseness and ExactExponentialDecay and the rank-agreement
//     measures TopOverlap and SpearmanRho.
//
// Every constructor takes the uint64 seed its randomness derives from;
// sketches built with one seed share their ranks, so they merge.
package lab
