//! Property tier for the satisfiability analyzer (the PR 10 soundness
//! contract): `Unsat` is a *proof*, never a guess. A query the analyzer
//! would prune returns the empty view on every document conforming to
//! the source DTD, and a pruning federation answers byte-identically to
//! an unpruned one while spending zero fetches on its `Unsat` members.

use mix::dtd::generate::{seeded_dtd, DtdGenConfig};
use mix::dtd::sample::{DocConfig, DocSampler};
use mix::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn doc_cfg() -> DocConfig {
    DocConfig {
        max_nodes: 60,
        ..DocConfig::default()
    }
}

// -- the federation.rs harness, with fetch counting -------------------------

const SITE_DTD: &str = "{<site : entry*> <entry : PCDATA>}";

fn site_doc(tag: &str, entries: usize) -> Document {
    let body: String = (0..entries)
        .map(|i| format!("<entry>{tag}{i}</entry>"))
        .collect();
    parse_document(&format!("<site>{body}</site>")).unwrap()
}

/// An [`XmlSource`] that counts its fetches, so a test can prove a
/// pruned member never touched the source.
struct CountingSource {
    inner: XmlSource,
    fetches: Arc<AtomicUsize>,
}

impl CountingSource {
    fn new(tag: &str, entries: usize) -> (CountingSource, Arc<AtomicUsize>) {
        let fetches = Arc::new(AtomicUsize::new(0));
        let inner = XmlSource::new(parse_compact(SITE_DTD).unwrap(), site_doc(tag, entries))
            .expect("site doc validates");
        (
            CountingSource {
                inner,
                fetches: Arc::clone(&fetches),
            },
            fetches,
        )
    }
}

impl Wrapper for CountingSource {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        self.inner.fetch()
    }
}

/// The satisfiable member query of the federation harness.
fn sat_query() -> Query {
    parse_query("all = SELECT X WHERE <site> X:<entry/> </site>").unwrap()
}

/// Provably unsatisfiable against the site DTD: `<entry>` is PCDATA, so
/// a child step under it never matches.
fn unsat_query() -> Query {
    parse_query("all = SELECT X WHERE <site> <entry> X:<deep/> </entry> </site>").unwrap()
}

/// Builds a federated union mediator over counted site sources; member
/// `i` gets the unsatisfiable query iff `unsat[i]`.
fn counted_union(
    config: ProcessorConfig,
    registry: Registry,
    members: &[(usize, bool)],
) -> (Mediator, Vec<Arc<AtomicUsize>>) {
    let mut m = Mediator::with_registry(config, registry);
    let mut counters = Vec::new();
    let mut parts = Vec::new();
    for (i, &(entries, is_unsat)) in members.iter().enumerate() {
        let site = format!("site{i}");
        let (source, fetches) = CountingSource::new(&site, entries);
        m.add_source(&site, Arc::new(source));
        counters.push(fetches);
        parts.push((site, if is_unsat { unsat_query() } else { sat_query() }));
    }
    let refs: Vec<(&str, Query)> = parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    m.register_union_view("all", &refs)
        .expect("union registers");
    (m, counters)
}

fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

/// `check_sat` is the one emptiness decider: over a fixed sweep of
/// cross-paired (query, DTD) pairs it proves every query Figure 2's
/// `tighten` classifies `Unsatisfiable`, and it decides every pair whose
/// query normalizes (no pair reaches the sibling check's bound).
#[test]
fn check_sat_proves_every_query_tighten_proves_empty() {
    const SEEDS: u64 = 40;
    let dtds: Vec<Dtd> = (0..SEEDS)
        .map(|s| seeded_dtd(s, &DtdGenConfig::default()))
        .collect();
    let mut missed = Vec::new();
    let mut undecided = Vec::new();
    for h in 0..SEEDS {
        for t in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(h * 1000 + t);
            let q = mix::xmas::gen::random_query(
                &dtds[h as usize],
                &mut rng,
                &mix::xmas::gen::QueryGenConfig::default(),
            );
            let target = &dtds[t as usize];
            let Ok(nq) = normalize(&q, target) else {
                continue;
            };
            let verdict = check_sat(&q, target);
            if classify_query(&nq, target) == Verdict::Unsatisfiable && !verdict.is_unsat() {
                missed.push(format!("(home {h}, target {t}): {verdict}\n{q}"));
            }
            if verdict == SatVerdict::Unknown {
                undecided.push(format!("(home {h}, target {t})"));
            }
        }
    }
    assert!(
        missed.is_empty(),
        "{} pair(s) tighten proves empty but check_sat does not:\n{}",
        missed.len(),
        missed.join("\n")
    );
    assert!(
        undecided.is_empty(),
        "normalizing pairs left Unknown: {}",
        undecided.join(", ")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of `Unsat` against random DTDs: queries generated for
    /// one DTD are checked against another (cross-pairing makes `Unsat`
    /// common — root mismatches, absent tags), and whenever the analyzer
    /// says `Unsat` — or the paper's `tighten` classifies the normalized
    /// query `Unsatisfiable` — the naive evaluator returns the empty view
    /// on every sampled conforming document.
    #[test]
    fn unsat_means_empty_on_every_conforming_document(
        home_seed in 0u64..200,
        target_seed in 0u64..200,
        q_seed in 0u64..500,
    ) {
        let home = seeded_dtd(home_seed, &DtdGenConfig::default());
        let target = seeded_dtd(target_seed, &DtdGenConfig::default());
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = mix::xmas::gen::random_query(&home, &mut rng, &mix::xmas::gen::QueryGenConfig::default());
        let verdict = check_sat(&q, &target);
        // a query that does not even normalize (e.g. X != X) never
        // reaches an evaluator; the claim is vacuous there
        let Ok(nq) = normalize(&q, &target) else { return };
        let tightened = classify_query(&nq, &target);
        if !verdict.is_unsat() && tightened != Verdict::Unsatisfiable {
            return;
        }
        let sampler = DocSampler::new(&target, doc_cfg()).expect("generator guarantees docs");
        for _ in 0..12 {
            let doc = sampler.sample(&mut rng);
            let view = evaluate(&nq, &doc);
            prop_assert!(
                view.root.children().is_empty(),
                "UNSOUND prune (home_seed={home_seed}, target_seed={target_seed}, \
                 q_seed={q_seed}): sat {verdict}, tighten {tightened:?}\nquery:\n{q}\n\
                 doc:\n{}\nview:\n{}",
                render(&doc),
                render(&view),
            );
        }
    }

    /// The memoized verdict agrees with the direct one — the cache layer
    /// (which the mediators and wrappers actually call) never changes an
    /// answer, only its cost.
    #[test]
    fn memoized_verdicts_agree_with_direct_checks(
        home_seed in 0u64..120,
        target_seed in 0u64..120,
        q_seed in 0u64..300,
    ) {
        let home = seeded_dtd(home_seed, &DtdGenConfig::default());
        let target = seeded_dtd(target_seed, &DtdGenConfig::default());
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = mix::xmas::gen::random_query(&home, &mut rng, &mix::xmas::gen::QueryGenConfig::default());
        let direct = check_sat(&q, &target);
        let cache = SatCache::new();
        prop_assert_eq!(cache.verdict(&q, &target), direct.clone());
        // and a second (now cached) lookup is stable
        prop_assert_eq!(cache.verdict(&q, &target), direct);
    }

    /// A pruning federation answers byte-identically to an unpruned one
    /// over any member mix, its report stays clean, every `Unsat` member
    /// costs zero fetches, and `sat_pruned_total` counts exactly them.
    #[test]
    fn pruned_federation_is_byte_identical_to_unpruned(
        // each code packs (entry count, unsat?): entries = code % 4,
        // the member gets the unsatisfiable query iff code >= 4
        codes in prop::collection::vec(0usize..8, 1..6),
    ) {
        let members: Vec<(usize, bool)> =
            codes.iter().map(|&c| (c % 4, c >= 4)).collect();
        let registry = Registry::new();
        let (pruned, pruned_fetches) =
            counted_union(ProcessorConfig::default(), registry.clone(), &members);
        let (reference, reference_fetches) = counted_union(
            ProcessorConfig { use_sat_pruning: false },
            Registry::new(),
            &members,
        );

        let (ref_doc, ref_report) = reference.materialize_with_report(name("all")).unwrap();
        let (doc, report) = pruned.materialize_with_report(name("all")).unwrap();

        prop_assert_eq!(render(&doc), render(&ref_doc), "pruning changed the answer bytes");
        prop_assert!(report.is_clean(), "a pruned member must not look degraded: {}", report);
        prop_assert!(ref_report.is_clean());

        let unsat_members = members.iter().filter(|&&(_, u)| u).count() as u64;
        for (i, &(_, is_unsat)) in members.iter().enumerate() {
            let fetched = pruned_fetches[i].load(Ordering::SeqCst);
            if is_unsat {
                prop_assert_eq!(fetched, 0, "Unsat member {} was fetched", i);
            } else {
                prop_assert_eq!(fetched, reference_fetches[i].load(Ordering::SeqCst),
                    "Sat member {} fetch count diverged", i);
            }
        }
        prop_assert_eq!(
            registry.snapshot().counters.get("sat_pruned_total").copied().unwrap_or(0),
            unsat_members,
            "sat_pruned_total must count exactly the skipped members"
        );
    }
}
