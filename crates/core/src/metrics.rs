//! Quantitative instrumentation for the soundness / tightness framework
//! of Section 3 — this is what turns the paper's formal criteria into the
//! measured experiments of `EXPERIMENTS.md`.
//!
//! * [`soundness_check`] — Definition 3.1, empirically: every view
//!   document of every sampled source document must satisfy the inferred
//!   view DTD (and s-DTD).
//! * [`tightness_counts`] — the exact number of structural documents each
//!   candidate view DTD describes, per size bound: naive vs. tight vs.
//!   specialized (smaller = tighter; the ratios are experiment X1).
//! * [`non_tight_witnesses`] — Definition 3.7, constructively: structures
//!   admitted by the *merged* view DTD but rejected by the specialized
//!   one; each is a structural class the view can never produce (e.g. the
//!   professor with conference-only publications that D2 admits,
//!   Section 3.2).
//! * [`realization_coverage`] — how many of the structures the view DTD
//!   describes were actually realized by sampled source documents.
//! * [`serving_metrics`] — the serving layer's cache observability
//!   (experiment X15): inference-cache hit/miss/invalidation counters next
//!   to the automata-layer inclusion memo counters.

use crate::cache::InferenceCache;
use crate::naive::{naive_view_dtd, NaiveMode};
use crate::pipeline::{infer_view_dtd, InferredView};
use mix_dtd::sample::{DocConfig, DocSampler};
use mix_dtd::sdtd::SAcceptor;
use mix_dtd::validate::Validator;
use mix_dtd::{count_documents_by_size, count_sdocuments_by_size, enumerate_documents, Dtd};
use mix_xmas::{evaluate, Query};
use mix_xml::{Document, Skeleton};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

pub use crate::cache::CacheStats;
pub use mix_relang::{MemoStats, PoolStats};

/// The serving layer's cache counters in one snapshot: the inference
/// cache of one mediator next to the process-wide automata memo (which
/// every cache miss exercises) and the process-wide regex pool. Reported
/// by `mixctl serve --bench` and experiments X15/X18.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingMetrics {
    /// Hit/miss/invalidation counters of the given [`InferenceCache`].
    pub inference: CacheStats,
    /// Inclusion-check memo counters (process-wide).
    pub automata: MemoStats,
    /// Hash-consed regex pool size and dedup counters (process-wide).
    pub pool: PoolStats,
}

/// Snapshots the serving-layer counters for `cache`.
pub fn serving_metrics(cache: &InferenceCache) -> ServingMetrics {
    ServingMetrics {
        inference: cache.stats(),
        automata: mix_relang::memo_stats(),
        pool: mix_relang::pool_stats(),
    }
}

/// Result of an empirical soundness run (experiment X2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessReport {
    /// Number of source documents sampled.
    pub samples: usize,
    /// View documents violating the merged view DTD (must be 0).
    pub dtd_violations: usize,
    /// View documents violating the specialized view DTD (must be 0).
    pub sdtd_violations: usize,
    /// How many sampled sources produced a non-empty view (sanity: the
    /// experiment is vacuous when everything is empty).
    pub nonempty_views: usize,
}

/// Samples `n` random source documents, runs the view, and validates every
/// result against both inferred view DTDs.
pub fn soundness_check(
    q: &Query,
    source: &Dtd,
    n: usize,
    seed: u64,
    cfg: DocConfig,
) -> SoundnessReport {
    let iv = infer_view_dtd(q, source).expect("query normalizes");
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = DocSampler::new(source, cfg).expect("source DTD describes documents");
    let validator = Validator::new(&iv.dtd);
    let acceptor = SAcceptor::new(&iv.sdtd);
    let mut report = SoundnessReport {
        samples: n,
        dtd_violations: 0,
        sdtd_violations: 0,
        nonempty_views: 0,
    };
    for _ in 0..n {
        let doc = sampler.sample(&mut rng);
        let view = evaluate(&iv.query, &doc);
        if !view.root.children().is_empty() {
            report.nonempty_views += 1;
        }
        if validator.validate_document(&view).is_err() {
            report.dtd_violations += 1;
        }
        if !acceptor.document_satisfies(&view) {
            report.sdtd_violations += 1;
        }
    }
    report
}

/// One row of the tightness-count table (experiment X1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TightnessRow {
    /// Document size (element nodes).
    pub size: usize,
    /// Structures of that size admitted by the naive view DTD.
    pub naive: u128,
    /// … by the merged tight view DTD.
    pub merged: u128,
    /// … by the specialized view DTD.
    pub specialized: u128,
}

/// Computes, for every size `1..=max_size`, how many structural documents
/// the naive, merged-tight, and specialized view DTDs describe.
///
/// Soundness of the pipeline guarantees `specialized ≤ merged ≤ naive`
/// pointwise (asserted by the property tests).
pub fn tightness_counts(q: &Query, source: &Dtd, max_size: usize) -> Vec<TightnessRow> {
    let iv = infer_view_dtd(q, source).expect("query normalizes");
    let naive = naive_view_dtd(&iv.query, source, NaiveMode::Sound);
    let cn = count_documents_by_size(&naive, max_size);
    let cm = count_documents_by_size(&iv.dtd, max_size);
    let cs = count_sdocuments_by_size(&iv.sdtd, max_size);
    (1..=max_size)
        .map(|s| TightnessRow {
            size: s,
            naive: cn[s],
            merged: cm[s],
            specialized: cs[s],
        })
        .collect()
}

/// Structures the merged view DTD admits but the specialized view DTD
/// rejects — concrete evidence of Section 3.2's structural non-tightness
/// of plain DTDs (each witness is a structural class the view cannot
/// produce, assuming the s-DTD is tight).
pub fn non_tight_witnesses(iv: &InferredView, max_size: usize, cap: usize) -> Vec<Document> {
    let acceptor = SAcceptor::new(&iv.sdtd);
    enumerate_documents(&iv.dtd, max_size, cap)
        .into_iter()
        .filter(|doc| !acceptor.document_satisfies(doc))
        .collect()
}

/// Coverage result of [`realization_coverage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Distinct view structures (≤ `max_view_size`) observed over the
    /// sampled sources.
    pub observed: usize,
    /// Structures of that size bound the specialized view DTD describes.
    pub described: u128,
}

/// Samples sources, evaluates the view, and reports how many of the
/// structures described by the specialized view DTD were realized.
pub fn realization_coverage(
    q: &Query,
    source: &Dtd,
    samples: usize,
    seed: u64,
    max_view_size: usize,
) -> Coverage {
    let iv = infer_view_dtd(q, source).expect("query normalizes");
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler =
        DocSampler::new(source, DocConfig::default()).expect("source describes documents");
    let mut seen: HashSet<String> = HashSet::new();
    for _ in 0..samples {
        let doc = sampler.sample(&mut rng);
        let view = evaluate(&iv.query, &doc);
        if view.size() <= max_view_size {
            // normalize strings away so the key is the structural class
            // with PCDATA collapsed (same abstraction as the counters)
            let skel = Skeleton::of(&collapse_strings(&view.root));
            seen.insert(format!("{skel:?}"));
        }
    }
    let described = count_sdocuments_by_size(&iv.sdtd, max_view_size)
        .into_iter()
        .fold(0u128, |a, b| a.saturating_add(b));
    Coverage {
        observed: seen.len(),
        described,
    }
}

fn collapse_strings(e: &mix_xml::Element) -> mix_xml::Element {
    use mix_xml::Content;
    mix_xml::Element {
        name: e.name,
        id: e.id,
        content: match &e.content {
            Content::Text(_) => Content::Text("s".to_owned()),
            Content::Elements(v) => Content::Elements(v.iter().map(collapse_strings).collect()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_xmas::parse_query;

    fn q2() -> Query {
        parse_query(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> \
                 <publication id=Pub1><journal/></publication> \
                 <publication id=Pub2><journal/></publication> \
               </> </> AND Pub1 != Pub2",
        )
        .unwrap()
    }

    #[test]
    fn q2_is_sound_on_d1() {
        let report = soundness_check(&q2(), &d1_department(), 150, 42, DocConfig::default());
        assert_eq!(report.dtd_violations, 0);
        assert_eq!(report.sdtd_violations, 0);
        assert!(report.nonempty_views > 0, "vacuous soundness experiment");
    }

    #[test]
    fn tightness_ordering_on_q2() {
        let rows = tightness_counts(&q2(), &d1_department(), 14);
        let mut strict_merged = false;
        let mut strict_spec = false;
        for r in &rows {
            assert!(
                r.merged <= r.naive,
                "merged looser than naive at {}",
                r.size
            );
            assert!(
                r.specialized <= r.merged,
                "specialized looser than merged at {}",
                r.size
            );
            strict_merged |= r.merged < r.naive;
            strict_spec |= r.specialized < r.merged;
        }
        assert!(strict_merged, "tight DTD should beat naive somewhere");
        assert!(strict_spec, "s-DTD should beat merged DTD somewhere");
    }

    #[test]
    fn d2_has_non_tight_witnesses() {
        // Section 3.2: D2 admits a professor with conference-only
        // publications, which the view can never produce.
        let iv = infer_view_dtd(&q2(), &d1_department()).unwrap();
        let witnesses = non_tight_witnesses(&iv, 14, 40_000);
        assert!(
            !witnesses.is_empty(),
            "expected structural non-tightness witnesses for D2"
        );
        // every witness satisfies the merged DTD by construction; spot-check
        let v = mix_dtd::validate::Validator::new(&iv.dtd);
        for w in witnesses.iter().take(5) {
            assert!(v.validate_document(w).is_ok());
        }
    }

    #[test]
    fn d3_is_structurally_tight() {
        // Example 3.2 / Definition 3.7: the publist view DTD admits nothing
        // the view cannot produce.
        let q = parse_query(
            "publist = SELECT P WHERE <department> <name>CS</name> \
               <professor | gradStudent> P:<publication><journal/></publication> </> </>",
        )
        .unwrap();
        let iv = infer_view_dtd(&q, &d1_department()).unwrap();
        let witnesses = non_tight_witnesses(&iv, 10, 40_000);
        assert!(witnesses.is_empty(), "D3 should be tight: {witnesses:?}");
    }

    #[test]
    fn coverage_reports_something() {
        let q = parse_query(
            "pubs = SELECT X WHERE <department> <professor | gradStudent> \
               X:<publication/> </> </>",
        )
        .unwrap();
        // the size bound must be loose enough that the sampler's stream
        // realizes at least one small view (a publication list with a
        // couple of entries is ~12–16 nodes)
        let c = realization_coverage(&q, &d1_department(), 100, 7, 16);
        assert!(c.observed > 0);
        assert!(c.described >= c.observed as u128);
    }
}
