//! The mediator's two ends of the mix-net wire (DESIGN.md §9).
//!
//! Serving side: [`WrapperService`] adapts any local [`Wrapper`]
//! (including a stacked [`crate::ViewWrapper`]) to `mix_net`'s text-based
//! `WireService`, so `mixctl serve-source` can export it. Faults cross the
//! wire as `(kind, detail)` pairs using the stable
//! [`SourceError::kind`] labels.
//!
//! Consuming side: [`net_to_source_error`] folds every transport,
//! protocol, and forwarded-remote failure onto the [`SourceError`] fault
//! model, so the resilience layer (retries, breakers,
//! `DegradationReport`) treats a socket exactly like an in-process
//! wrapper:
//!
//! | wire failure                        | `SourceError`            |
//! |-------------------------------------|--------------------------|
//! | connection refused / unresolvable   | `Unavailable`            |
//! | read/write deadline expired         | `Timeout`                |
//! | reset, mid-frame EOF, other I/O     | `Transient`              |
//! | protocol violation (bad frame/UTF-8)| `MalformedXml`           |
//! | frame-version mismatch              | `Incompatible`           |
//! | `Throttled` (admission shed)        | `Throttled`              |
//! | remote `Err { kind, … }`            | same variant, by label   |
//!
//! The split between the retryable transport rows and the two
//! non-retryable rows matters: `Incompatible` and `Throttled` are **not**
//! source faults, so circuit breakers don't trip on a misdeployed peer or
//! on backpressure — the replica router fails over instead.
//!
//! Messages are deterministic (no OS error text), so a loopback run and
//! an equivalently-scripted in-process run produce byte-identical
//! degradation reports — the e2e tests rely on this.

use crate::error::SourceError;
use crate::source::Wrapper;
use mix_net::{NetError, WireFault, WireService};
use mix_xml::{write_document, WriteConfig};

/// Adapts a local [`Wrapper`] to the wire's text-based service interface.
pub struct WrapperService<W> {
    inner: W,
    registry: Option<mix_obs::Registry>,
}

impl<W: Wrapper> WrapperService<W> {
    /// Wraps `inner` for serving. The service answers `Stats` requests
    /// with the process-wide [`mix_obs::global`] registry only (automata
    /// memo counters); attach a daemon registry with
    /// [`WrapperService::with_registry`] to serve the full picture.
    pub fn new(inner: W) -> WrapperService<W> {
        WrapperService {
            inner,
            registry: None,
        }
    }

    /// Attaches the daemon's registry: `Stats` requests then return its
    /// snapshot *merged* with [`mix_obs::global`], so one reply carries
    /// the serving mediator's counters next to the process-wide memo
    /// counters.
    pub fn with_registry(mut self, registry: mix_obs::Registry) -> WrapperService<W> {
        self.registry = Some(registry);
        self
    }

    /// The served wrapper.
    pub fn inner(&self) -> &W {
        &self.inner
    }
}

impl<W: Wrapper + 'static> WireService for WrapperService<W> {
    fn export_dtd(&self) -> String {
        self.inner.dtd().to_string()
    }

    fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
        match query {
            None => {
                let doc = self.inner.fetch().map_err(|e| fault_of(&e))?;
                Ok(write_document(&doc, WriteConfig::default()))
            }
            Some(text) => {
                let q = mix_xmas::parse_query(text)
                    .map_err(|e| WireFault::new("query", e.to_string()))?;
                self.inner.answer_text(&q).map_err(|e| fault_of(&e))
            }
        }
    }

    fn stats(&self) -> Option<String> {
        let mut snap = mix_obs::global().snapshot();
        if let Some(r) = &self.registry {
            snap = snap.merge(&r.snapshot());
        }
        Some(snap.to_json())
    }
}

/// Serializes a [`SourceError`] for the wire: the stable kind label plus a
/// detail string chosen so [`remote_to_source_error`] reconstructs the
/// identical value (`Timeout` ships its millis as the detail).
pub fn fault_of(e: &SourceError) -> WireFault {
    let msg = match e {
        SourceError::Transient(m)
        | SourceError::MalformedXml(m)
        | SourceError::DtdInvalid(m)
        | SourceError::Unavailable(m)
        | SourceError::Incompatible(m) => m.clone(),
        SourceError::Timeout { millis } => millis.to_string(),
        SourceError::Throttled { retry_after_ms } => retry_after_ms.to_string(),
        SourceError::Query(e) => e.to_string(),
    };
    WireFault::new(e.kind(), msg)
}

/// Rebuilds a [`SourceError`] from a forwarded remote fault. Inverse of
/// [`fault_of`] for every source-fault variant; `query` faults (which a
/// [`crate::RemoteWrapper`] avoids by normalizing locally) and unknown
/// future labels degrade to [`SourceError::Unavailable`] rather than
/// being misclassified as retryable.
pub fn remote_to_source_error(kind: &str, msg: String) -> SourceError {
    match kind {
        "transient" => SourceError::Transient(msg),
        "timeout" => SourceError::Timeout {
            millis: msg.parse().unwrap_or(0),
        },
        "malformed-xml" => SourceError::MalformedXml(msg),
        "dtd-invalid" => SourceError::DtdInvalid(msg),
        "unavailable" => SourceError::Unavailable(msg),
        "incompatible" => SourceError::Incompatible(msg),
        "throttled" => SourceError::Throttled {
            retry_after_ms: msg.parse().unwrap_or(0),
        },
        other => SourceError::Unavailable(format!("remote fault [{other}]: {msg}")),
    }
}

/// Folds a wire failure onto the [`SourceError`] fault model. `addr`
/// prefixes transport messages; `io_timeout_millis` is the client's
/// configured deadline (the duration a timeout actually waited).
pub fn net_to_source_error(addr: &str, io_timeout_millis: u64, e: NetError) -> SourceError {
    if e.is_refused() {
        return SourceError::Unavailable(format!("{addr}: connection refused"));
    }
    if e.is_timeout() {
        return SourceError::Timeout {
            millis: io_timeout_millis,
        };
    }
    match e {
        NetError::Remote { kind, msg } => remote_to_source_error(&kind, msg),
        NetError::Protocol(msg) => SourceError::MalformedXml(format!("{addr}: {msg}")),
        // a version mismatch is fatal, not retryable: keep it out of the
        // breaker-counted variants so health routing sees a deployment
        // fault, not a sick source
        NetError::VersionMismatch { theirs, ours } => SourceError::Incompatible(format!(
            "{addr}: peer speaks protocol version {theirs}, this build speaks {ours}"
        )),
        NetError::Throttled { retry_after_ms } => SourceError::Throttled { retry_after_ms },
        // deterministic: the io::ErrorKind's stable name, not OS text
        NetError::Io(io) => {
            SourceError::Transient(format!("{addr}: transport fault ({})", io.kind()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::XmlSource;
    use mix_dtd::paper::d1_department;
    use mix_xmas::NormalizeError;
    use mix_xml::parse_document;
    use std::io;

    fn service() -> WrapperService<XmlSource> {
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>u</title><author>a</author><conference/></publication>\
               </gradStudent></department>",
        )
        .unwrap();
        WrapperService::new(XmlSource::new(d1_department(), doc).unwrap())
    }

    #[test]
    fn exported_dtd_text_reparses() {
        let text = service().export_dtd();
        let dtd = mix_dtd::parse_compact(&text).unwrap();
        assert!(mix_dtd::same_documents(&dtd, &d1_department()));
    }

    #[test]
    fn answer_none_is_fetch_and_some_is_query() {
        let s = service();
        let full = s.answer(None).unwrap();
        assert!(full.contains("<gradStudent>"));
        let ans = s
            .answer(Some(
                "profs = SELECT P WHERE <department> P:<professor/> </department>",
            ))
            .unwrap();
        assert!(ans.contains("<professor>"));
        assert!(!ans.contains("<gradStudent>"));
    }

    #[test]
    fn query_parse_failure_is_a_query_fault() {
        let fault = service().answer(Some("this is not XMAS")).unwrap_err();
        assert_eq!(fault.kind, "query");
    }

    #[test]
    fn deep_query_text_is_a_query_fault_and_the_daemon_keeps_answering() {
        // the query parser runs on a connection thread's stack: 50 000
        // nested conditions must come back as a fault, not overflow it
        let server = mix_net::Server::bind(
            "127.0.0.1:0",
            std::sync::Arc::new(service()),
            mix_net::ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap();
        let pool = mix_net::Pool::new(server.addr().to_string(), mix_net::ClientConfig::default());
        let deep = format!(
            "v = SELECT X WHERE {}X:<a/>{}",
            "<a>".repeat(50_000),
            "</>".repeat(50_000)
        );
        match pool.request(mix_net::Msg::Query(deep)) {
            Err(NetError::Remote { kind, msg }) => {
                assert_eq!(kind, "query");
                assert!(msg.contains("nested deeper"), "{msg}");
            }
            other => panic!("expected a remote query fault, got {other:?}"),
        }
        let q = "profs = SELECT P WHERE <department> P:<professor/> </department>";
        match pool.request(mix_net::Msg::Query(q.into())) {
            Ok(mix_net::Msg::Answer(xml)) => assert!(xml.contains("<professor>")),
            other => panic!("expected an answer, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn source_faults_roundtrip_through_the_wire_encoding() {
        for e in [
            SourceError::Transient("reset".into()),
            SourceError::Timeout { millis: 250 },
            SourceError::MalformedXml("eof at byte 3".into()),
            SourceError::DtdInvalid("extra course".into()),
            SourceError::Unavailable("circuit open".into()),
            SourceError::Incompatible("peer speaks protocol version 9".into()),
            SourceError::Throttled { retry_after_ms: 40 },
        ] {
            let f = fault_of(&e);
            assert_eq!(remote_to_source_error(&f.kind, f.msg), e);
        }
    }

    #[test]
    fn query_faults_and_unknown_kinds_degrade_to_unavailable() {
        let q = SourceError::Query(NormalizeError::SelfDiseq(mix_xmas::Var::new("X")));
        let f = fault_of(&q);
        assert_eq!(f.kind, "query");
        assert!(matches!(
            remote_to_source_error("query", f.msg),
            SourceError::Unavailable(_)
        ));
        assert!(matches!(
            remote_to_source_error("chrono-skew", "future fault".into()),
            SourceError::Unavailable(_)
        ));
    }

    #[test]
    fn transport_failures_classify_deterministically() {
        let refused = NetError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "os text"));
        assert_eq!(
            net_to_source_error("127.0.0.1:9", 10_000, refused),
            SourceError::Unavailable("127.0.0.1:9: connection refused".into())
        );
        let timeout = NetError::Io(io::Error::new(io::ErrorKind::WouldBlock, "os text"));
        assert_eq!(
            net_to_source_error("a", 10_000, timeout),
            SourceError::Timeout { millis: 10_000 }
        );
        let eof = NetError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "os text"));
        match net_to_source_error("a", 10_000, eof) {
            SourceError::Transient(m) => assert!(!m.contains("os text"), "{m}"),
            other => panic!("expected Transient, got {other:?}"),
        }
        assert!(matches!(
            net_to_source_error("a", 1, NetError::protocol("bad frame")),
            SourceError::MalformedXml(_)
        ));
    }

    #[test]
    fn version_mismatch_and_throttle_split_off_the_retryable_mapping() {
        // the satellite fix: a version mismatch must NOT land in a
        // breaker-counted variant the way protocol garbage does
        let e = net_to_source_error("h:1", 1, NetError::VersionMismatch { theirs: 9, ours: 1 });
        assert_eq!(
            e,
            SourceError::Incompatible(
                "h:1: peer speaks protocol version 9, this build speaks 1".into()
            )
        );
        assert!(!e.is_source_fault() && !e.is_transient());
        let t = net_to_source_error("h:1", 1, NetError::Throttled { retry_after_ms: 75 });
        assert_eq!(t, SourceError::Throttled { retry_after_ms: 75 });
        assert!(!t.is_source_fault());
        // while a refused connection stays a breaker-counted source fault
        let refused = NetError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, ""));
        assert!(net_to_source_error("h:1", 1, refused).is_source_fault());
    }
}
