//! # mix-infer — view DTD inference (the paper's primary contribution)
//!
//! Given the source DTD and a pick-element XMAS view definition, infers
//! the *tightest* specialized view DTD (Sections 3–4) and its merged plain
//! form:
//!
//! * [`refine()`] — type refinement, plain and tagged (Section 4.1),
//! * [`tighten()`] — the Tightening algorithm with its
//!   valid/satisfiable/unsatisfiable side effect (Figure 2),
//! * [`infer_list`] — result-list type inference (Section 4.4, Appendix B),
//! * [`merge()`] — s-DTD → DTD conversion with merge signalling (Section 4.3),
//! * [`naive_view_dtd`] — the naive baseline of Example 3.1,
//! * [`infer_view_dtd`] — the end-to-end pipeline,
//! * [`infer_union_view_dtd`] — multi-source union views (the intro's
//!   "union of 100 sites" scenario),
//! * [`cache`] — the serving layer's memoized inference with stable
//!   fingerprints and per-source invalidation,
//! * [`metrics`] — quantitative soundness/tightness instrumentation for
//!   the experiments in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod cache;
pub mod inferlist;
pub mod merge;
pub mod metrics;
pub mod naive;
pub mod pipeline;
pub mod refine;
pub mod sat;
pub mod tighten;
pub mod union;

pub use cache::{
    fingerprint_dtd, fingerprint_query, CacheStats, Fingerprint, InferenceCache, WarmStore,
    INFERENCE_CACHE_CAPACITY,
};
pub use inferlist::{infer_list, one_level_extension, project};
pub use merge::{merge, Merged};
pub use naive::{naive_view_dtd, NaiveMode};
pub use pipeline::{infer_view_dtd, InferredView};
pub use refine::{refine, refine1};
pub use sat::{check_sat, check_sat_normalized, SatCache, SatVerdict, SAT_CACHE_CAPACITY};
pub use tighten::{classify_query, tighten, Tightened, Verdict};
pub use union::{infer_union_view_dtd, infer_union_view_dtd_cached, InferredUnionView};
