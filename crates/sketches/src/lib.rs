//! # tps-sketches
//!
//! Stream summaries the truly perfect samplers are built on.
//!
//! The paper's `L_p` samplers for `p ∈ [1, 2]` obtain their rejection
//! normaliser from a **deterministic** Misra–Gries bound on `‖f‖_∞`
//! (Theorem 3.2 / 3.4) precisely because any randomized estimate that can
//! fail — however rarely — would re-introduce additive error and the
//! sampler would no longer be *truly* perfect. The one randomized summary
//! here, [`AmsFpEstimator`], feeds the sliding-window `L_p` sampler's
//! window-norm estimate, which is why that sampler is truly perfect only
//! conditioned on the estimator's success event (Theorem A.5).
//!
//! | module | structure | used by |
//! |---|---|---|
//! | [`misra_gries`] | Misra–Gries heavy hitters (deterministic) | `L_p` sampler normaliser |
//! | [`fp_estimate`] | AMS sampling-based `F_p` estimator | the sliding-window `L_p` sampler's smooth-histogram norm estimate (`tps-window`) |
//! | [`sparse_recovery`] | Reed–Solomon syndrome `k`-sparse recovery (deterministic under the sparsity promise) | strict-turnstile `F_0` sampler (Theorem D.3) |
//! | [`exact_counter`] | shared suffix-count table | the skip-ahead engine's `O(1)` update path |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exact_counter;
pub mod fp_estimate;
pub mod misra_gries;
pub mod sparse_recovery;

pub use fp_estimate::AmsFpEstimator;
pub use misra_gries::MisraGries;
pub use sparse_recovery::SparseRecovery;
