//! # MIX — view DTD inference for XML mediators
//!
//! A from-scratch Rust reproduction of *"Enhancing Semistructured Data
//! Mediators with Document Type Definitions"* (Papakonstantinou &
//! Velikhov, ICDE 1999) — the MIX mediator's View DTD Inference module and
//! every substrate it rests on.
//!
//! ```
//! use mix::prelude::*;
//!
//! // the paper's department DTD (D1) and query (Q3)
//! let source = mix::dtd::paper::d1_department();
//! let q = parse_query(
//!     "publist = SELECT P WHERE <department> <name>CS</name> \
//!        <professor | gradStudent> P:<publication><journal/></publication> </> </>",
//! ).unwrap();
//! let view = infer_view_dtd(&q, &source).unwrap();
//! // the inferred view DTD removed the (journal | conference) disjunction
//! let publication = view.dtd.get(name("publication")).unwrap();
//! assert_eq!(publication.to_string(), "title, author+, journal");
//! ```
//!
//! The crates:
//!
//! * [`relang`] — regular expressions over element names + automata,
//! * [`xml`] — the paper's XML abstraction (parser, serializer),
//! * [`dtd`] — DTDs & specialized DTDs: validation, comparison, counting,
//! * [`xmas`] — the pick-element XMAS query language,
//! * [`infer`] — refine / tighten / merge / InferList (the contribution),
//! * [`mediator`] — the MIX mediator: views, emptiness pruning,
//!   composition, stacking,
//! * [`net`] — the mix-net wire protocol for distributed mediation
//!   (`mixctl serve-source` daemons, `RemoteWrapper` clients),
//! * [`obs`] — the observability substrate: atomic instruments, span
//!   tracing, Prometheus/JSON expositions (`mixctl stats`),
//! * [`store`] — the persistent content-addressed warm-start store
//!   (`mixctl ... --store-dir`): pool arena, inclusion memo, and
//!   inference results survive restarts,
//! * [`dataguide`] — strong DataGuides for the Section 5 related-work
//!   comparison.

pub use mix_dataguide as dataguide;
pub use mix_dtd as dtd;
pub use mix_infer as infer;
pub use mix_mediator as mediator;
pub use mix_net as net;
pub use mix_obs as obs;
pub use mix_relang as relang;
pub use mix_store as store;
pub use mix_stream as stream;
pub use mix_xmas as xmas;
pub use mix_xml as xml;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mix_dataguide::DataGuide;
    pub use mix_dtd::{
        count_documents_by_size, count_sdocuments_by_size, parse_compact, parse_compact_sdtd,
        parse_xml_dtd, same_documents, satisfies, sdtd_satisfies, tighter_than, validate_document,
        ContentModel, Dtd, SDtd,
    };
    pub use mix_infer::metrics::{
        non_tight_witnesses, realization_coverage, serving_metrics, soundness_check,
        tightness_counts, ServingMetrics,
    };
    pub use mix_infer::{
        check_sat, classify_query, infer_view_dtd, merge, naive_view_dtd, refine, tighten,
        CacheStats, InferenceCache, InferredUnionView, InferredView, NaiveMode, SatCache,
        SatVerdict, Verdict, WarmStore,
    };
    pub use mix_mediator::{
        compose, render_structure, Answer, AnswerPath, BreakerState, Composed, DeadReplica,
        DegradationReport, Fault, FaultInjector, FaultPlan, FetchStatus, LatencyWrapper, Mediator,
        MediatorError, ProcessorConfig, RemoteWrapper, ReplicaInstruments, ReplicaPolicy,
        ReplicaSet, ResiliencePolicy, ServedBy, SourceError, SourceOutcome, SourceSpec,
        StreamingWrapper, Topology, TopologyError, UnionView, ViewWrapper, Wrapper, WrapperService,
        XmlSource,
    };
    pub use mix_net::{
        AdmissionConfig, ClientConfig, Connection, Msg, NetError, Pool, Server, ServerConfig,
        ServerHandle,
    };
    pub use mix_obs::{Registry, Snapshot};
    pub use mix_relang::symbol::{name, sym, Name, Sym};
    pub use mix_relang::{equivalent, is_subset, parse_regex, simplify, Regex};
    pub use mix_store::{Store, StoreStats};
    pub use mix_stream::{stream_answer, stream_answer_to, CompiledQuery, StreamStats};
    pub use mix_xmas::{evaluate, normalize, parse_query, Query};
    pub use mix_xml::{parse_document, write_document, Document, Element, WriteConfig};
}
