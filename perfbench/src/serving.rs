//! The serving fixture shared by federated-query and bulk-materialize:
//! `mix-net` daemons on loopback running `WrapperService` with the
//! `mixctl serve-source` defaults (no answer memo, one worker per CPU, a
//! registry attached), a `Mediator` reaching them through
//! `RemoteWrapper`s, and a closed loop whose every operation is
//! `parse_query` on a client query text followed by `Mediator::query`.

use crate::harness::{self, closed_loop, ratio, Args, Counters, Delta, Outcome, Report};
use crate::layers::{stage_times, Layers};
use crate::oracle::{render, Oracle};
use crate::stats::{self, covered, self_time};
use crate::trace::{self, ObsSpan, Span, TracedService, TracedWrapper};
use mix_dtd::Dtd;
use mix_mediator::{
    Mediator, ProcessorConfig, RemoteWrapper, StreamingWrapper, Wrapper, WrapperService, XmlSource,
};
use mix_net::{ClientConfig, Server, ServerConfig, ServerHandle, WireService};
use mix_obs::Registry;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One source of the federation.
pub enum SourceInput {
    /// A daemon serving an `XmlSource` over this document text.
    Daemon { dtd: Dtd, doc: String },
    /// An in-process `StreamingWrapper` over a generated file; `doc` is
    /// the same text, for the twin.
    Stream {
        dtd: Dtd,
        path: PathBuf,
        doc: String,
    },
}

/// Everything a serving workload feeds the program, generated from the
/// seed before any timing starts.
pub struct Inputs {
    pub sources: Vec<(String, SourceInput)>,
    /// `(source, view definition)` single-source views.
    pub views: Vec<(String, String)>,
    /// `(view name, [(source, member query)])` union views.
    pub unions: Vec<(String, Vec<(String, String)>)>,
    /// Distinct client query texts.
    pub texts: Vec<String>,
    /// Sampling weight of each text (any positive scale).
    pub weights: Vec<f64>,
    pub clients: usize,
    pub warmup_ops: usize,
    pub setups: usize,
    pub seed: u64,
}

type Service = WrapperService<Arc<dyn Wrapper>>;

/// A running federation.
struct Fixture {
    mediator: Mediator,
    registry: Registry,
    daemons: Vec<ServerHandle>,
    daemon_registries: Vec<Registry>,
    traced_services: Vec<(u32, Arc<TracedService<Service>>)>,
    /// durations of the `infer` spans registration recorded, ms
    registration_infer_ms: Vec<f64>,
}

impl Fixture {
    fn shutdown(self) {
        drop(self.mediator);
        for d in self.daemons {
            d.shutdown();
        }
    }

    fn registries(&self) -> Vec<&Registry> {
        let mut r = vec![mix_obs::global(), &self.registry];
        r.extend(self.daemon_registries.iter());
        r
    }
}

fn spawn<S: WireService>(service: Arc<S>, registry: &Registry) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        workers: harness::cpus(),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", service, config)
        .map_err(|e| format!("bind: {e}"))?
        .with_registry(registry)
        .spawn()
        .map_err(|e| format!("spawn: {e}"))
}

/// Cumulative weights, for sampling an input index.
pub struct Sampler {
    cumulative: Vec<f64>,
}

impl Sampler {
    pub fn new(weights: &[f64]) -> Sampler {
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Sampler { cumulative }
    }

    pub fn pick(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("at least one input");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// The program's own set-up: daemons bind and load their documents, the
/// mediator connects (fetching each exported DTD), registers and infers
/// every view, and runs the warm-up operations.
fn setup(inputs: &Inputs, traced: bool, sampler: &Sampler) -> Result<Fixture, String> {
    let registry = Registry::new();
    let mut mediator = Mediator::with_registry(ProcessorConfig::default(), registry.clone());
    let mut daemons = Vec::new();
    let mut daemon_registries = Vec::new();
    let mut traced_services = Vec::new();
    let client = ClientConfig {
        pool_size: harness::cpus(),
        ..ClientConfig::default()
    };
    for (tag, (name, input)) in inputs.sources.iter().enumerate() {
        let tag = tag as u32;
        let wrapper: Arc<dyn Wrapper> = match input {
            SourceInput::Daemon { dtd, doc } => {
                let doc = mix_xml::parse_document(doc).map_err(|e| format!("{name}: {e}"))?;
                let source =
                    XmlSource::new(dtd.clone(), doc).map_err(|e| format!("{name}: {e}"))?;
                let served: Arc<dyn Wrapper> = if traced {
                    Arc::new(TracedWrapper::new(source, "source.answer", tag))
                } else {
                    Arc::new(source)
                };
                let daemon_registry = Registry::new();
                let service = WrapperService::new(served).with_registry(daemon_registry.clone());
                let handle = if traced {
                    let svc = Arc::new(TracedService::new(service, tag));
                    traced_services.push((tag, Arc::clone(&svc)));
                    spawn(svc, &daemon_registry)?
                } else {
                    spawn(Arc::new(service), &daemon_registry)?
                };
                let remote = RemoteWrapper::connect_with(&handle.addr().to_string(), client)
                    .map_err(|e| format!("{name}: {e}"))?;
                daemons.push(handle);
                daemon_registries.push(daemon_registry);
                Arc::new(remote)
            }
            SourceInput::Stream { dtd, path, .. } => {
                let w = StreamingWrapper::from_file(dtd.clone(), path);
                if traced {
                    Arc::new(TracedWrapper::new(w, "stream.answer", tag))
                } else {
                    Arc::new(w)
                }
            }
        };
        let wrapper: Arc<dyn Wrapper> = if traced {
            Arc::new(TracedWrapper::new(wrapper, "mediator.fetch", tag))
        } else {
            wrapper
        };
        mediator.add_source(name, wrapper);
    }
    register(&mut mediator, inputs)?;
    let registration_infer_ms = if traced {
        registry
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.stage == "infer")
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    } else {
        Vec::new()
    };
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x5741_524d);
    for _ in 0..inputs.warmup_ops {
        let text = &inputs.texts[sampler.pick(&mut rng)];
        let q = mix_xmas::parse_query(text).map_err(|e| format!("warm-up: {e}"))?;
        mediator
            .query(&q)
            .map_err(|e| format!("warm-up '{text}': {e}"))?;
    }
    Ok(Fixture {
        mediator,
        registry,
        daemons,
        daemon_registries,
        traced_services,
        registration_infer_ms,
    })
}

fn register(m: &mut Mediator, inputs: &Inputs) -> Result<(), String> {
    for (source, text) in &inputs.views {
        let q = mix_xmas::parse_query(text).map_err(|e| format!("{text}: {e}"))?;
        m.register_view(source, &q)
            .map_err(|e| format!("{text}: {e}"))?;
    }
    for (name, parts) in &inputs.unions {
        let parts: Vec<(&str, mix_xmas::Query)> = parts
            .iter()
            .map(|(s, t)| {
                mix_xmas::parse_query(t)
                    .map(|q| (s.as_str(), q))
                    .map_err(|e| format!("{t}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        m.register_union_view(name, &parts)
            .map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// The twin: a mediator over in-process `XmlSource` copies of the same
/// documents, answering each distinct text once.
fn oracle(inputs: &Inputs) -> Result<Oracle, String> {
    let mut twin = Mediator::with_registry(ProcessorConfig::default(), Registry::noop());
    for (name, input) in &inputs.sources {
        let (dtd, doc) = match input {
            SourceInput::Daemon { dtd, doc } | SourceInput::Stream { dtd, doc, .. } => (dtd, doc),
        };
        let doc = mix_xml::parse_document(doc).map_err(|e| format!("twin {name}: {e}"))?;
        let source = XmlSource::new(dtd.clone(), doc).map_err(|e| format!("twin {name}: {e}"))?;
        twin.add_source(name, Arc::new(source));
    }
    register(&mut twin, inputs)?;
    let mut oracle = Oracle::new();
    for (i, text) in inputs.texts.iter().enumerate() {
        let q = mix_xmas::parse_query(text).map_err(|e| format!("{text}: {e}"))?;
        let a = twin.query(&q).map_err(|e| format!("twin '{text}': {e}"))?;
        oracle.expect(i, render(&a.document));
    }
    Ok(oracle)
}

/// Client `c`'s operation: draw a text, parse it, query, check.
fn client_op<'a>(
    fx: &'a Fixture,
    inputs: &'a Inputs,
    sampler: &'a Sampler,
    oracle: &'a Oracle,
    c: usize,
    salt: u64,
) -> impl FnMut(u64) -> (u64, bool) + 'a {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ salt ^ ((c as u64 + 1) << 32));
    move |_| {
        let i = sampler.pick(&mut rng);
        let t = Instant::now();
        let op = trace::begin_request("op");
        let parsed = {
            let _g = trace::enter("xmas.parse_query", 0);
            mix_xmas::parse_query(&inputs.texts[i])
        };
        let answer = parsed.ok().and_then(|q| {
            let _g = trace::enter("mediator.query", 0);
            fx.mediator.query(&q).ok()
        });
        drop(op);
        let ns = t.elapsed().as_nanos() as u64;
        let ok = answer.is_some_and(|a| oracle.check(i, &render(&a.document)));
        (ns, ok)
    }
}

/// Runs a serving workload: several timed set-ups, then the measured
/// window (`--trace 0`) or the traced run (`--trace 1`).
pub fn run(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let sampler = Sampler::new(&inputs.weights);
    trace::set_enabled(args.trace);
    let mut setup_s = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..inputs.setups.max(1) {
        if let Some(old) = fixture.take() {
            old.shutdown();
        }
        let t = Instant::now();
        fixture = Some(setup(inputs, args.trace, &sampler)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    let fx = fixture.expect("at least one set-up ran");
    let oracle = oracle(inputs)?;
    let outcome = if args.trace {
        Ok(Outcome::Traced(traced(
            args, inputs, &fx, &sampler, &oracle,
        )))
    } else {
        let window = closed_loop(inputs.clients, args.seconds, |c| {
            client_op(&fx, inputs, &sampler, &oracle, c, 0)
        });
        Ok(Outcome::Measured { setup_s, window })
    };
    fx.shutdown();
    outcome
}

/// The traced run over the fixture; per-layer numbers come from its
/// traced windows only.
fn traced(
    args: &Args,
    inputs: &Inputs,
    fx: &Fixture,
    sampler: &Sampler,
    oracle: &Oracle,
) -> Report {
    let run = harness::traced_run(args, &fx.registry, &fx.registries(), |phase, seconds| {
        closed_loop(inputs.clients, seconds, |c| {
            client_op(fx, inputs, sampler, oracle, c, phase + 1)
        })
    });
    let mut l = analyze(&run.spans, &run.obs, &run.windows, &parse_costs(fx));
    l.obs_spans_lost = run.lost as f64;
    l.obs_trace_overhead_pct = run.overhead_pct();
    l.infer_infer_ms = stats::p50(&fx.registration_infer_ms);
    l.stages = stage_times(&view_pairs(inputs));
    counters_into(&mut l, &run.delta, &run.end, run.traced.attempted);
    run.report(l.to_metrics())
}

/// `(view definition, source DTD)` of every registered single-source
/// view and union member, for the inference stage timings.
fn view_pairs(inputs: &Inputs) -> Vec<(String, Dtd)> {
    let dtd_of = |source: &str| {
        inputs
            .sources
            .iter()
            .find(|(n, _)| n == source)
            .map(|(_, s)| match s {
                SourceInput::Daemon { dtd, .. } | SourceInput::Stream { dtd, .. } => dtd.clone(),
            })
    };
    let mut pairs = Vec::new();
    for (source, text) in inputs
        .views
        .iter()
        .chain(inputs.unions.iter().flat_map(|(_, p)| p.iter()))
    {
        if let Some(d) = dtd_of(source) {
            pairs.push((text.clone(), d));
        }
    }
    pairs
}

/// Per daemon: ms to parse its whole-document reply (a parse-memo miss)
/// and ms to clone an already parsed one with fresh ids (a memo hit),
/// each the median of a few repetitions, timed after the run.
fn parse_costs(fx: &Fixture) -> HashMap<u32, (f64, f64, usize)> {
    let mut out = HashMap::new();
    for (tag, svc) in &fx.traced_services {
        let Some((_, reply)) = svc.replies().into_iter().find(|(k, _)| k.is_none()) else {
            continue;
        };
        let reps = (20_000_000 / reply.len().max(1)).clamp(3, 51);
        let mut parse = Vec::new();
        let mut clone = Vec::new();
        let mut doc = None;
        for _ in 0..reps {
            let t = Instant::now();
            let d = mix_xml::parse_document(&reply).ok();
            parse.push(t.elapsed().as_secs_f64() * 1e3);
            doc = d;
        }
        if let Some(d) = &doc {
            for _ in 0..reps {
                let t = Instant::now();
                let mut c = d.clone();
                c.refresh_auto_ids();
                std::hint::black_box(&c);
                clone.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        out.insert(*tag, (stats::p50(&parse), stats::p50(&clone), reply.len()));
    }
    out
}

/// `RemoteWrapper`'s reply-parse memo admits replies up to this size.
/// The mediator only ever fetches whole documents, so each daemon has
/// one reply text, which the warm-up has already parsed: inside the
/// traced windows a reply is a memo hit exactly when it is admissible.
const MEMO_MAX_ENTRY: usize = 1 << 20;

fn in_windows(t: u64, windows: &[(u64, u64)]) -> bool {
    windows.iter().any(|&(a, b)| t >= a && t <= b)
}

/// Builds the span tree of the traced windows and reduces it to the
/// per-layer metrics.
fn analyze(
    spans: &[Span],
    obs: &[ObsSpan],
    windows: &[(u64, u64)],
    costs: &HashMap<u32, (f64, f64, usize)>,
) -> Layers {
    let spans: Vec<&Span> = spans
        .iter()
        .filter(|s| in_windows(s.start, windows))
        .collect();
    let obs: Vec<&ObsSpan> = obs
        .iter()
        .filter(|s| in_windows(s.start, windows))
        .collect();
    let named = |n: &'static str| spans.iter().copied().filter(move |s| s.name == n);

    // mediator.query spans by id and by start, for resolving the
    // parents of spans recorded on the mediator's worker threads
    let mut mq: Vec<&Span> = named("mediator.query").collect();
    mq.sort_by_key(|s| s.start);
    let mut trace_parent: HashMap<u64, u64> = HashMap::new();
    for f in named("mediator.fetch").filter(|f| f.parent != 0 && f.trace != 0) {
        trace_parent.insert(f.trace, f.parent);
    }
    for o in obs.iter().filter(|o| o.stage == "query") {
        if trace_parent.contains_key(&o.trace) {
            continue;
        }
        // the two clocks agree only to within the offset measurement,
        // so containment is checked with some slack
        const SLACK_NS: u64 = 100_000;
        let upto = mq.partition_point(|s| s.start <= o.start + SLACK_NS);
        let best = mq[..upto]
            .iter()
            .rev()
            .take(64)
            .filter(|s| s.end + SLACK_NS >= o.end)
            .min_by_key(|s| o.start.abs_diff(s.start) + s.end.abs_diff(o.end));
        if let Some(s) = best {
            trace_parent.insert(o.trace, s.id);
        }
    }
    let fetches: Vec<(u64, &Span)> = named("mediator.fetch")
        .map(|f| {
            let parent = if f.parent != 0 {
                f.parent
            } else {
                trace_parent.get(&f.trace).copied().unwrap_or(0)
            };
            (parent, f)
        })
        .collect();

    // each daemon-side handle span belongs to the fetch of the same
    // source that encloses it most tightly
    let mut by_tag: HashMap<u32, Vec<&Span>> = HashMap::new();
    for (_, f) in &fetches {
        by_tag.entry(f.tag).or_default().push(f);
    }
    for v in by_tag.values_mut() {
        v.sort_by_key(|s| s.start);
    }
    let mut handle_of: HashMap<u64, &Span> = HashMap::new();
    let mut handles: Vec<&Span> = named("net.handle").collect();
    handles.sort_by_key(|s| s.start);
    for h in handles {
        let Some(cands) = by_tag.get(&h.tag) else {
            continue;
        };
        let upto = cands.partition_point(|f| f.start <= h.start);
        let best = cands[..upto]
            .iter()
            .filter(|f| f.end >= h.end && !handle_of.contains_key(&f.id))
            .min_by_key(|f| (h.start - f.start) + (f.end - h.end));
        if let Some(f) = best {
            handle_of.insert(f.id, h);
        }
    }
    let mut child_of: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &spans {
        if s.parent != 0 {
            child_of.entry(s.parent).or_default().push(s);
        }
    }
    let child = |id: u64, name: &str| {
        child_of
            .get(&id)
            .and_then(|v| v.iter().copied().find(|s| s.name == name))
    };
    let mut fetch_children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (parent, f) in &fetches {
        fetch_children
            .entry(*parent)
            .or_default()
            .push((f.start, f.end));
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut l = Layers::default();
    let (mut op_ms, mut remainder, mut self_ms, mut parse_q) = (vec![], vec![], vec![], vec![]);
    for op in named("op") {
        op_ms.push(ms(op.dur()));
        let p = child(op.id, "xmas.parse_query");
        let q = child(op.id, "mediator.query");
        let kids: Vec<(u64, u64)> = p.iter().chain(q.iter()).map(|s| (s.start, s.end)).collect();
        remainder.push(ms(self_time(op.start, op.end, &kids)));
        if let Some(p) = p {
            parse_q.push(ms(p.dur()));
        }
        if let Some(q) = q {
            let f = fetch_children.get(&q.id).map_or(&[][..], |v| v.as_slice());
            self_ms.push(ms(q.dur() - covered(q.start, q.end, f)));
        }
    }
    l.trace_op_ms = stats::p50(&op_ms);
    l.trace_remainder_ms = stats::p50(&remainder);
    l.mediator_self_ms = stats::p50(&self_ms);
    l.xmas_parse_query_ms = stats::p50(&parse_q);

    // per fetch: the daemon's handling, the source inside it, and the
    // client side (round trip plus turning the reply into a document)
    let (mut fetch_ms, mut handle_ms, mut source_ms, mut stream_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut serialize, mut reply_parse, mut rpc, mut queue) = (vec![], vec![], vec![], vec![]);
    for (_, f) in &fetches {
        fetch_ms.push(ms(f.dur()));
        if let Some(s) = child(f.id, "stream.answer") {
            stream_ms.push(ms(s.dur()));
        }
        let Some(h) = handle_of.get(&f.id) else {
            continue;
        };
        handle_ms.push(ms(h.dur()));
        let src = child(h.id, "source.answer").map_or(0, Span::dur);
        if src > 0 {
            source_ms.push(ms(src));
        }
        serialize.push(ms(h.dur().saturating_sub(src)));
        let (miss_ms, hit_ms, _) = costs.get(&f.tag).copied().unwrap_or((0.0, 0.0, 0));
        let hit = h.bytes as usize <= MEMO_MAX_ENTRY;
        let parse_cost = if hit { hit_ms } else { miss_ms };
        reply_parse.push(parse_cost);
        let client = (ms(f.dur()) - parse_cost).max(0.0);
        rpc.push(client);
        queue.push((client - ms(h.dur())).max(0.0));
    }
    l.mediator_fetch_ms = stats::p50(&fetch_ms);
    l.net_server_handle_ms = stats::p50(&handle_ms);
    l.source_answer_ms = stats::p50(&source_ms);
    l.stream_answer_ms = stats::p50(&stream_ms);
    l.xml_serialize_ms = stats::p50(&serialize);
    l.xml_reply_parse_ms = stats::p50(&reply_parse);
    l.net_client_rpc_ms = stats::p50(&rpc);
    l.net_queue_wait_ms = stats::p50(&queue);

    let obs_ms = |stage: &str| -> Vec<f64> {
        obs.iter()
            .filter(|o| o.stage == stage)
            .map(|o| ms(o.end - o.start))
            .collect()
    };
    l.mediator_union_merge_ms = stats::p50(&obs_ms("union_merge"));
    l.xmas_normalize_ms = stats::p50(&obs_ms("normalize"));
    l
}

/// Fills the counter-derived metrics from the traced windows' growth.
fn counters_into(l: &mut Layers, d: &Delta, end: &Counters, ops: u64) {
    let ops = ops.max(1) as f64;
    let queries = d.get("mediator_queries_total");
    l.mediator_composed_ratio = ratio(d.get("mediator_answers_composed_total"), queries);
    l.mediator_materialized_ratio = ratio(d.get("mediator_answers_materialized_total"), queries);
    l.mediator_pruned_ratio = ratio(d.get("mediator_answers_pruned_total"), queries);
    l.mediator_fetches_per_op = d.hist_count("source_fetch_latency_ns") as f64 / ops;
    let (hits, misses) = (
        d.get("wire_parse_memo_hits_total"),
        d.get("wire_parse_memo_misses_total"),
    );
    l.mediator_parse_memo_hit_ratio = ratio(hits, hits + misses);
    l.mediator_parse_memo_evictions = d.get("wire_parse_memo_evictions_total") as f64;
    let (streamed, fallback) = (
        d.get("stream_queries_streamed_total"),
        d.get("stream_queries_fallback_total"),
    );
    l.stream_streamed_ratio = ratio(streamed, streamed + fallback);
    l.net_bytes_per_op = (d.get("net_bytes_in_total") + d.get("net_bytes_out_total")) as f64 / ops;
    l.net_frames_per_op =
        (d.get("net_frames_in_total") + d.get("net_frames_out_total")) as f64 / ops;
    l.net_faults = (d.get("net_deadline_expiries_total")
        + d.get("net_connections_refused_total")
        + d.get("net_requests_shed_total")) as f64;
    l.fill_automata(d, end);
}
