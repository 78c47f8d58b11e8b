//! view-churn — the schema-change (write) path, one client and no
//! sockets. The mediator is built with `Mediator::with_store` on a
//! directory inside the checkout; each operation calls `replace_source`
//! with the next DTD of a seeded cycle (paper DTDs, wide chains and
//! generated DTDs), which re-infers every view over that source and
//! writes the fresh inferences behind to the store.

use crate::harness::{self, closed_loop, ratio, Args, Outcome, Report, Window};
use crate::layers::{stage_times, Layers};
use crate::stats::{self, covered};
use crate::trace::{self, TracedStore};
use mix_dtd::generate::{seeded_dtd, DtdGenConfig};
use mix_dtd::Dtd;
use mix_infer::WarmStore;
use mix_mediator::{Mediator, ProcessorConfig, SourceError, Wrapper};
use mix_obs::Registry;
use mix_relang::symbol::Name;
use mix_store::Store;
use mix_xml::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A source that exports a DTD and nothing else: view-churn never
/// fetches, it only re-infers.
struct SchemaOnly(Dtd);

impl Wrapper for SchemaOnly {
    fn dtd(&self) -> &Dtd {
        &self.0
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        Err(SourceError::Unavailable(
            "view-churn sources export only a DTD".into(),
        ))
    }
}

/// Single-source views over the churning source `s`, naming elements of
/// every DTD family in the cycle (paper, chain and generated DTDs), so
/// each DTD makes some of them satisfiable. They avoid wildcards:
/// `replace_source` re-infers a view from its stored normalized query,
/// whose wildcards were expanded against the previous DTD, so a wildcard
/// view's DTD would disagree with uncached inference after a change.
const VIEWS: [&str; 8] = [
    "publist = SELECT P WHERE <department> <name>CS</name> \
       <professor | gradStudent> P:<publication><journal/></publication> </> </>",
    "profs = SELECT P WHERE <department> P:<professor> <publication/> </professor> </department>",
    "chain = SELECT P WHERE <c0> <c1> P:<c2> <other2/> </c2> </c1> </c0>",
    "chain4 = SELECT P WHERE <c0> <c1> <c2> <c3> P:<c4> <a4_1/> </c4> </> </> </> </>",
    "gen1 = SELECT P WHERE <n0> P:<n1 | n2 | n3/> </n0>",
    "gen2 = SELECT P WHERE <n0> <n1 | n2> P:<n3 | n4 | n5/> </> </n0>",
    "venues = SELECT P WHERE <professor> P:<journal | conference/> </professor>",
    "sect = SELECT P WHERE <section> P:<section> <prolog/> </section> </section>",
];

/// The union view over the churning source and a fixed D1 source.
const UNION: (&str, &str, &str) = (
    "both",
    "m = SELECT P WHERE <n0 | department | c0> P:<n1 | professor | c1/> </>",
    "m = SELECT P WHERE <department> P:<professor/> </department>",
);

/// Generated DTDs in the cycle. Many of one size, so the cost spread of
/// one pass (and with it the per-operation median) differs little from
/// seed to seed.
const GENERATED: u64 = 80;

/// The seeded DTD cycle. Its length times the views per source stays far
/// below the inference cache's 4096 entries, so no entry is ever evicted:
/// every re-inference is the invalidation `replace_source` causes.
fn cycle(seed: u64) -> Vec<Dtd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dtds = vec![
        mix_dtd::paper::d1_department(),
        mix_dtd::paper::d9_professor(),
        mix_dtd::paper::d11_department(),
        mix_dtd::paper::section_recursive(),
    ];
    // fixed sizes: the seed varies the generated structure and the order,
    // not how much inference work one pass over the cycle holds. The two
    // largest chains cost about the same, so the p99 falls inside their
    // class rather than on the edge between two classes.
    for (depth, width) in [(6, 10), (9, 13), (12, 16), (12, 17)] {
        dtds.push(mix_bench::wide_chain_workload(depth, width).0);
    }
    for i in 0..GENERATED {
        dtds.push(seeded_dtd(
            seed.wrapping_mul(31).wrapping_add(i),
            &DtdGenConfig {
                names: 24,
                regex_depth: 4,
                ..DtdGenConfig::default()
            },
        ));
    }
    for i in (1..dtds.len()).rev() {
        dtds.swap(i, rng.gen_range(0..=i));
    }
    dtds
}

struct Fixture {
    /// `replace_source` takes `&mut self`; the one client holds the lock
    /// around each operation, uncontended.
    mediator: Mutex<Mediator>,
    registry: Registry,
}

/// The program's set-up: open and load the store, build the mediator on
/// it, register every view (inference), and warm up with one pass over
/// the cycle.
fn setup(dir: &Path, cycle: &[Arc<dyn Wrapper>], traced: bool) -> Result<Fixture, String> {
    let registry = Registry::new();
    let store = Arc::new(Store::open(dir, &registry).map_err(|e| format!("store: {e}"))?);
    let store: Arc<dyn WarmStore> = if traced {
        Arc::new(TracedStore::new(store as Arc<dyn WarmStore>))
    } else {
        store
    };
    let mut m = Mediator::with_store(ProcessorConfig::default(), registry.clone(), store);
    m.add_source("s", Arc::clone(&cycle[0]));
    m.add_source("t", Arc::new(SchemaOnly(mix_dtd::paper::d1_department())));
    for text in VIEWS {
        let q = mix_xmas::parse_query(text).map_err(|e| format!("{text}: {e}"))?;
        m.register_view("s", &q)
            .map_err(|e| format!("{text}: {e}"))?;
    }
    let parts = [
        (
            "s",
            mix_xmas::parse_query(UNION.1).map_err(|e| e.to_string())?,
        ),
        (
            "t",
            mix_xmas::parse_query(UNION.2).map_err(|e| e.to_string())?,
        ),
    ];
    m.register_union_view(UNION.0, &parts)
        .map_err(|e| format!("{}: {e}", UNION.0))?;
    for w in cycle.iter().skip(1).chain(cycle.first()) {
        m.replace_source("s", Arc::clone(w))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Fixture {
        mediator: Mutex::new(m),
        registry,
    })
}

/// The twin: every view DTD computed by uncached inference, per cycle
/// position, in the order `view_names()` lists them.
fn expected(dtds: &[Dtd]) -> Result<Vec<Vec<Dtd>>, String> {
    let d1 = mix_dtd::paper::d1_department();
    let views: Vec<_> = VIEWS
        .iter()
        .map(|t| mix_xmas::parse_query(t).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (us, ut) = (
        mix_xmas::parse_query(UNION.1).map_err(|e| e.to_string())?,
        mix_xmas::parse_query(UNION.2).map_err(|e| e.to_string())?,
    );
    dtds.iter()
        .map(|dtd| {
            let mut out = Vec::new();
            for q in &views {
                let iv = mix_infer::infer_view_dtd(q, dtd).map_err(|e| e.to_string())?;
                out.push(iv.dtd);
            }
            let u =
                mix_infer::infer_union_view_dtd(Name::intern(UNION.0), &[(&us, dtd), (&ut, &d1)])
                    .map_err(|e| e.to_string())?;
            out.push(u.dtd);
            Ok(out)
        })
        .collect()
}

fn check(m: &Mediator, expected: &[Dtd]) -> bool {
    let names = m.view_names();
    names.len() == expected.len()
        && names
            .iter()
            .zip(expected)
            .all(|(n, e)| m.view_dtd(*n) == Some(e))
}

/// Trace ids the benchmark installs for its own operations, starting far
/// above any id a registry allocates.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1 << 48);

/// Runs the single client for `seconds`. Operation n installs the cycle's
/// next DTD (the set-up's warm-up pass left `cycle[0]` in place).
fn run_loop(
    fx: &Fixture,
    cycle: &[Arc<dyn Wrapper>],
    expected: &[Vec<Dtd>],
    seconds: f64,
    pos: &Mutex<usize>,
) -> Window {
    closed_loop(1, seconds, |_| {
        move |_| {
            let mut m = fx.mediator.lock().unwrap_or_else(PoisonError::into_inner);
            let mut p = pos.lock().unwrap_or_else(PoisonError::into_inner);
            *p = (*p + 1) % cycle.len();
            // the inference cache records its spans under this trace
            let _scope = mix_obs::set_current_trace(NEXT_TRACE.fetch_add(1, Ordering::Relaxed));
            let t = Instant::now();
            let op = trace::begin_request("op");
            let r = m.replace_source("s", Arc::clone(&cycle[*p]));
            drop(op);
            let ns = t.elapsed().as_nanos() as u64;
            (ns, r.is_ok() && check(&m, &expected[*p]))
        }
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dtds = cycle(args.seed);
    let wrappers: Vec<Arc<dyn Wrapper>> = dtds
        .iter()
        .map(|d| Arc::new(SchemaOnly(d.clone())) as Arc<dyn Wrapper>)
        .collect();
    let expected = expected(&dtds)?;
    let dir = PathBuf::from(format!(
        ".bench_work/churn-seed{}-{}",
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    trace::set_enabled(args.trace);
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(setup(&dir, &wrappers, args.trace)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    let setup_spans = trace::take();
    let fx = fixture.expect("at least one set-up ran");
    let pos = Mutex::new(0usize);
    let outcome = if args.trace {
        Outcome::Traced(traced(
            args,
            &fx,
            &wrappers,
            &dtds,
            &expected,
            &setup_spans,
            &pos,
        ))
    } else {
        let window = run_loop(&fx, &wrappers, &expected, args.seconds, &pos);
        Outcome::Measured { setup_s, window }
    };
    drop(fx);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}

/// Set-ups per measuring process. The first opens an empty store, the
/// later ones load what their predecessors wrote behind.
const SETUPS: usize = 3;

fn traced(
    args: &Args,
    fx: &Fixture,
    cycle: &[Arc<dyn Wrapper>],
    dtds: &[Dtd],
    expected: &[Vec<Dtd>],
    setup_spans: &[trace::Span],
    pos: &Mutex<usize>,
) -> Report {
    let registries = [mix_obs::global(), &fx.registry];
    let run = harness::traced_run(args, &fx.registry, &registries, |_, seconds| {
        run_loop(fx, cycle, expected, seconds, pos)
    });
    let (spans, obs, windows, delta) = (&run.spans, &run.obs, &run.windows, &run.delta);
    let inside = |t: u64| windows.iter().any(|&(a, b)| t >= a && t <= b);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut l = Layers::default();
    let mut by_trace: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut infer_ms = Vec::new();
    for o in obs.iter().filter(|o| inside(o.start)) {
        by_trace.entry(o.trace).or_default().push((o.start, o.end));
        if o.stage == "infer" {
            infer_ms.push(ms(o.end - o.start));
        }
    }
    let mut records: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut record_ms = Vec::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "store.record" && inside(s.start))
    {
        records.entry(s.parent).or_default().push((s.start, s.end));
        record_ms.push(ms(s.dur()));
    }
    let (mut op_ms, mut self_ms) = (Vec::new(), Vec::new());
    for op in spans.iter().filter(|s| s.name == "op" && inside(s.start)) {
        let mut kids = records.remove(&op.id).unwrap_or_default();
        kids.extend(by_trace.get(&op.trace).into_iter().flatten());
        op_ms.push(ms(op.dur()));
        self_ms.push(ms(op.dur() - covered(op.start, op.end, &kids)));
    }
    l.trace_op_ms = stats::p50(&op_ms);
    l.mediator_self_ms = stats::p50(&self_ms);
    // nothing but the replace_source call sits inside the op span
    l.trace_remainder_ms = 0.0;
    l.infer_infer_ms = stats::p50(&infer_ms);
    l.store_record_ms = stats::p50(&record_ms);
    l.store_load_ms = stats::p50(
        &setup_spans
            .iter()
            .filter(|s| s.name == "store.load")
            .map(|s| ms(s.dur()))
            .collect::<Vec<_>>(),
    );
    l.store_bytes_per_op = ratio(delta.get("store_bytes_total"), run.traced.attempted);
    let pairs: Vec<(String, Dtd)> = dtds
        .iter()
        .flat_map(|d| VIEWS.iter().map(move |v| (v.to_string(), d.clone())))
        .collect();
    l.stages = stage_times(&pairs);
    l.xmas_parse_query_ms = l.stages.parse_query_ms;
    l.xmas_normalize_ms = l.stages.normalize_ms;
    l.obs_spans_lost = run.lost as f64;
    l.obs_trace_overhead_pct = run.overhead_pct();
    l.fill_automata(delta, &run.end);
    let note = format!(
        "cycle length {} DTDs x {} views; inference cache capacity {}",
        dtds.len(),
        VIEWS.len() + 1,
        mix_infer::INFERENCE_CACHE_CAPACITY
    );
    let mut report = run.report(l.to_metrics());
    report.notes.push(note);
    report
}
