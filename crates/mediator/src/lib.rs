//! # mix-mediator — the MIX mediator substrate
//!
//! The on-demand XML mediator architecture of Section 1: wrappers export
//! XML data typed by DTDs ([`Wrapper`], [`XmlSource`]); the mediator
//! registers XMAS views, runs the View DTD Inference module on
//! registration, and answers user queries with DTD-based pruning and
//! view–query composition (avoiding materialization). Both emptiness
//! prunes — a user query against its view's DTD, and a per-source query
//! against the source DTD before any fetch — ask one decider,
//! [`mix_infer::check_sat`]; the Figure 2 inference algorithm runs only
//! when a view is registered or re-inferred. Mediators stack: a
//! [`ViewWrapper`] exports a view — with its *inferred* DTD — as a
//! source for a higher mediator.
//! [`render_structure`] is the structure summary of the DTD-based query
//! interface.
//!
//! The source layer is fallible and fault-tolerant: the mediator ships
//! each normalized query to its wrapper ([`Wrapper::answer`]) and checks
//! the reply against the view DTD it holds ([`ReplyCheck`]); wrapper
//! calls return [`SourceError`], every call runs in a per-source
//! resilience layer ([`ResiliencePolicy`]: bounded retries, a circuit
//! breaker, the last good answer per query), union views degrade
//! gracefully to partial answers with a [`DegradationReport`], and the
//! deterministic seeded [`FaultInjector`] exercises all of it
//! reproducibly.
//!
//! The serving layer is concurrent and cache-aware: view registration and
//! re-inference run through a shared `InferenceCache` (invalidated when a
//! source's DTD changes), the members of a view are answered in
//! parallel, and [`Mediator::answer_many`] fans a query batch across
//! scoped worker threads while preserving input order and per-query
//! degradation reports. [`LatencyWrapper`] simulates remote-source
//! round-trips for honest throughput experiments (X15).
//!
//! The source layer is also *distributed*: [`WrapperService`] exports any
//! local wrapper over the mix-net wire protocol (what `mixctl
//! serve-source` runs), and [`RemoteWrapper`] consumes one as an ordinary
//! [`Wrapper`] — transport faults fold onto [`SourceError`]
//! ([`net_to_source_error`]), so resilience and degradation work
//! identically over sockets (DESIGN.md §9).
//!
//! The whole serving stack is *observable*: every [`Mediator`] records
//! into a [`mix_obs::Registry`] shared with its inference cache — query
//! counts and latency, per-source fetch/retry/breaker instruments
//! ([`SourceInstruments`]), occurrence-time degradation events, and
//! per-request span traces (query → normalize → cache → fetch → union
//! merge). Pass [`mix_obs::Registry::noop`] to
//! [`Mediator::with_registry`] and all of it compiles down to a branch
//! (DESIGN.md §10, bench X17).

#![warn(missing_docs)]

pub mod builder;
pub mod compose;
pub mod error;
pub mod fault;
pub mod interface;
#[allow(clippy::module_inception)]
pub mod mediator;
pub mod obs;
pub mod resilience;
pub mod source;
pub mod stack;
pub mod streaming;
pub mod topology;
pub mod wire;

pub use builder::{BuildError, Constraint, QueryBuilder};
pub use compose::{compose, Composed};
pub use error::SourceError;
pub use fault::{Fault, FaultInjector, FaultPlan};
pub use interface::{occurs, render_structure, Occurs};
pub use mediator::{Answer, AnswerPath, Mediator, MediatorError, ProcessorConfig, UnionView, View};
pub use obs::{ReplicaInstruments, SourceInstruments};
pub use resilience::{
    resilient_answer, BreakerGate, BreakerState, DegradationReport, FetchStatus, Health,
    ReplyCheck, ResiliencePolicy, SourceOutcome, STALE_ANSWERS_CAP, STALE_ANSWERS_MAX_ELEMENTS,
};
pub use source::{LatencyWrapper, RemoteWrapper, Wrapper, XmlSource};
pub use stack::ViewWrapper;
pub use streaming::{ServedBy, StreamFactory, StreamingWrapper};
pub use topology::{DeadReplica, ReplicaPolicy, ReplicaSet, SourceSpec, Topology, TopologyError};
pub use wire::{net_to_source_error, WrapperService};
