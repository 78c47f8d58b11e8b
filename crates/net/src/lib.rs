//! # mix-net — the wire protocol of distributed mediation
//!
//! MIX is a *distributed* architecture: wrappers export a DTD and answer
//! queries for sources that live elsewhere, and mediators stack on top of
//! mediators across machine boundaries (Paper §1). This crate is that
//! boundary: a deliberately small, std-only protocol (no external
//! dependencies — the one concession is a thin raw-syscall shim in
//! `sys` for epoll/poll readiness, everything else is `std::net`) that
//! moves three kinds of text — DTDs in the paper's compact notation,
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
//! * [`server`] — a readiness-driven reactor (epoll on Linux, poll(2)
//!   elsewhere) with nonblocking sockets, per-connection ring buffers, a
//!   connection cap, idle eviction, and optional per-client admission
//!   control, serving any [`WireService`] on a small worker pool,
//! * [`client`] — a blocking [`Connection`] with handshake, and the
//!   [`Pool`] of them: an exchange checks out an idle connection (or
//!   dials one, up to `pool_size`), runs on the caller's thread, and
//!   checks it back in; batches pipeline on one connection,
//! * [`admission`] — the per-client [`TokenBucket`].
//!
//! The full frame format and error-mapping contract are documented in
//! `DESIGN.md` §9; the federation tier built on top in §12; the reactor
//! and pipelining design in §13.

pub mod admission;
pub mod client;
pub mod error;
pub mod frame;
pub mod msg;
mod reactor;
mod ring;
pub mod server;
mod sys;

pub use admission::{AdmissionConfig, TokenBucket};
pub use client::{ClientConfig, Connection, Pool};
pub use error::NetError;
pub use frame::{MsgType, FRAME_VERSION, MAX_PAYLOAD};
pub use msg::Msg;
pub use server::{Server, ServerConfig, ServerHandle, WireFault, WireService};
