//! # mix-net — the wire protocol of distributed mediation
//!
//! MIX is a *distributed* architecture: wrappers export a DTD and answer
//! queries for sources that live elsewhere, and mediators stack on top of
//! mediators across machine boundaries (Paper §1). This crate is that
//! boundary: a deliberately small, std-only protocol (no external
//! dependencies — the one concession is a single poll(2) in `sys`, the
//! client's probe of an idle connection; everything else is `std::net`)
//! that moves three kinds of text — DTDs in the paper's compact notation,
//! XMAS queries, and XML documents — between a mediator and a remote
//! wrapper.
//!
//! The crate knows nothing about DTDs or queries *as values*: payloads
//! are opaque UTF-8 produced and consumed by the `mix-dtd` / `mix-xmas` /
//! `mix-xml` serializers on either side. That keeps the dependency
//! arrow pointing one way (`mix-mediator` → `mix-net`) so the client
//! ([`Pool`]) can live here while `RemoteWrapper` — which must implement
//! the mediator's `Wrapper` trait — lives in `mix-mediator`.
//!
//! * [`frame`] — length-prefixed binary framing with a version byte and
//!   a per-request frame id, so a batch can pipeline on one connection,
//! * [`msg`] — the message types (`Hello`, `ExportDtd`, `Query`,
//!   `Answer`, `Err`, `Stats`, `Throttled`),
//! * [`server`] — an accept thread and one thread per connection, which
//!   reads a frame, answers it and writes the reply; a connection cap,
//!   idle eviction, optional per-client admission control, and answer
//!   slots that bound how many calls to any [`WireService`] run at once,
//! * [`client`] — a blocking [`Connection`] with handshake, and the
//!   [`Pool`] of them: an exchange checks out an idle connection (or
//!   dials one, up to `pool_size`), runs on the caller's thread, and
//!   checks it back in; batches pipeline on one connection,
//! * [`admission`] — the per-client [`TokenBucket`].
//!
//! The full frame format and error-mapping contract are documented in
//! `DESIGN.md` §9; the federation tier built on top in §12; the
//! connection threads, answer slots and shutdown in §13.

pub mod admission;
pub mod client;
pub mod error;
pub mod frame;
pub mod msg;
pub mod server;
mod sys;

pub use admission::{AdmissionConfig, TokenBucket};
pub use client::{ClientConfig, Connection, Pool};
pub use error::NetError;
pub use frame::{MsgType, FRAME_VERSION, MAX_PAYLOAD};
pub use msg::Msg;
pub use server::{Server, ServerConfig, ServerHandle, WireFault, WireService};
