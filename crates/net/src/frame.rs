//! Length-prefixed framing.
//!
//! Every message on the wire is one frame. Version 2 (this build):
//!
//! ```text
//! +---------+---------+-------------------+-------------------+----------------+
//! | version | type    | frame id          | payload length    | payload        |
//! | 1 byte  | 1 byte  | 4 bytes, BE u32   | 4 bytes, BE u32   | `length` bytes |
//! +---------+---------+-------------------+-------------------+----------------+
//! ```
//!
//! The `frame id` ties each `Answer`/`Err`/`Throttled` reply to the
//! request it answers. This build's client has one request in flight per
//! connection and ends the connection when a reply carries any other id.
//! Id `0` is reserved for *connection-scope* frames — faults that concern
//! the whole session (connection-cap refusals, protocol desync reports)
//! rather than any one request — so request ids always start at 1.
//!
//! Version 1 (PR 3 through PR 6) had no frame id — a 6-byte header of
//! `[version][type][len]` — and therefore required strict one-in one-out
//! request/reply alternation. The version byte is checked on *every*
//! frame (it costs nothing and a mid-stream desync then fails loudly
//! instead of misparsing), the length is capped at [`MAX_PAYLOAD`] so a
//! corrupt or hostile peer cannot make the reader allocate gigabytes, and
//! payloads are UTF-8 (enforced one layer up, in [`crate::msg`]).
//!
//! Version-bump policy: the byte is bumped only for changes that alter
//! the *shape* of a frame (v1→v2 inserted the frame id). Adding a message
//! type is additive — peers that predate it answer with a `protocol`
//! fault (unknown type) rather than desyncing. When versions disagree,
//! each side detects the foreign version byte on the first frame it
//! reads; a v2 server answers a v1 peer with a v1-encoded
//! `Err { kind: "incompatible" }` (see [`write_frame_v1`]) so old clients
//! get a clean, breaker-neutral `Incompatible` fault instead of garbage.
//!
//! Both ends read and write frames only through this module: the
//! client's `Connection` and the server's connection threads.

use crate::error::NetError;
use std::io::{self, Read, Write};

/// Protocol version spoken by this build. Version 2 added the 4-byte
/// frame id to the header; see the module docs for the bump policy.
pub const FRAME_VERSION: u8 = 2;

/// The previous wire version (no frame id, 6-byte header). Kept so a v2
/// server can *reply* to a v1 peer in the peer's own framing when
/// refusing the connection as incompatible.
pub const LEGACY_FRAME_VERSION: u8 = 1;

/// Size of the v2 frame header in bytes.
pub const HEADER_LEN: usize = 10;

/// Size of the legacy v1 frame header in bytes.
pub const LEGACY_HEADER_LEN: usize = 6;

/// Frame id reserved for connection-scope frames (refusals, protocol
/// faults not tied to any single request). Request ids start at 1.
pub const CONNECTION_FRAME_ID: u32 = 0;

/// Hard cap on a single frame's payload (16 MiB) — far above any DTD or
/// document this system ships, low enough to bound a reader's allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The message type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Handshake, both directions. Empty payload.
    Hello = 0,
    /// Request (client → server, empty payload) and response
    /// (server → client, payload = the DTD in compact notation).
    ExportDtd = 1,
    /// Client → server. Payload = an XMAS query in the paper's syntax;
    /// an *empty* payload requests the full exported document (the
    /// wrapper `fetch` operation).
    Query = 2,
    /// Server → client. Payload = the answer document as XML text.
    Answer = 3,
    /// Server → client. Payload = `kind '\n' detail`: a remote fault
    /// using the mediator's stable `SourceError::kind()` labels.
    Err = 4,
    /// Request (client → server, empty payload) and response
    /// (server → client, payload = a `mix-obs/1` JSON snapshot of the
    /// peer's observability registry). Services that export no
    /// statistics answer with an `Err { kind: "unsupported" }`.
    Stats = 5,
    /// Server → client. Payload = the suggested minimum backoff in
    /// decimal milliseconds: the per-client admission token bucket shed
    /// this request. Backpressure, not a fault — the request was never
    /// dispatched. (Additive: no version bump was needed.)
    Throttled = 6,
}

impl MsgType {
    pub(crate) fn from_byte(b: u8) -> Option<MsgType> {
        match b {
            0 => Some(MsgType::Hello),
            1 => Some(MsgType::ExportDtd),
            2 => Some(MsgType::Query),
            3 => Some(MsgType::Answer),
            4 => Some(MsgType::Err),
            5 => Some(MsgType::Stats),
            6 => Some(MsgType::Throttled),
            _ => None,
        }
    }
}

/// What [`decode_header`] learned from 10 buffered header bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameHeader {
    /// The message type byte, already validated.
    ty: MsgType,
    /// The frame id ([`CONNECTION_FRAME_ID`] for connection-scope).
    frame_id: u32,
    /// Announced payload length, already checked against [`MAX_PAYLOAD`].
    len: u32,
}

/// Encodes the v2 header for one frame into a fixed array.
fn encode_header(ty: MsgType, frame_id: u32, len: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0] = FRAME_VERSION;
    header[1] = ty as u8;
    header[2..6].copy_from_slice(&frame_id.to_be_bytes());
    header[6..10].copy_from_slice(&len.to_be_bytes());
    header
}

/// Decodes and validates a v2 header whose [`HEADER_LEN`] bytes have
/// been read.
fn decode_header(header: &[u8; HEADER_LEN]) -> Result<FrameHeader, NetError> {
    if header[0] != FRAME_VERSION {
        // distinct from Protocol: a version mismatch is a *deployment*
        // incompatibility, and the resilience layer must not treat it as
        // a retryable source fault
        return Err(NetError::VersionMismatch {
            theirs: header[0],
            ours: FRAME_VERSION,
        });
    }
    let ty = MsgType::from_byte(header[1])
        .ok_or_else(|| NetError::protocol(format!("unknown message type {}", header[1])))?;
    let frame_id = u32::from_be_bytes([header[2], header[3], header[4], header[5]]);
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(NetError::protocol(format!(
            "frame announces a {len} byte payload (cap is {MAX_PAYLOAD})"
        )));
    }
    Ok(FrameHeader { ty, frame_id, len })
}

/// Writes one frame and flushes it.
pub fn write_frame(
    w: &mut impl Write,
    ty: MsgType,
    frame_id: u32,
    payload: &[u8],
) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(NetError::protocol(format!(
            "refusing to send a {} byte payload (cap is {MAX_PAYLOAD})",
            payload.len()
        )));
    }
    w.write_all(&encode_header(ty, frame_id, payload.len() as u32))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Writes one frame in the *legacy v1* encoding (6-byte header, no frame
/// id). Only used to tell a v1 peer, in its own framing, that this build
/// is incompatible — never for regular traffic.
pub fn write_frame_v1(w: &mut impl Write, ty: MsgType, payload: &[u8]) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(NetError::protocol(format!(
            "refusing to send a {} byte payload (cap is {MAX_PAYLOAD})",
            payload.len()
        )));
    }
    let mut header = [0u8; LEGACY_HEADER_LEN];
    header[0] = LEGACY_FRAME_VERSION;
    header[1] = ty as u8;
    header[2..6].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Transport errors (including clean EOF before the
/// whole frame, which surfaces as `UnexpectedEof`) come back as
/// [`NetError::Io`]; anything structurally wrong with the bytes as
/// [`NetError::Protocol`]; a foreign version byte as
/// [`NetError::VersionMismatch`].
pub fn read_frame(r: &mut impl Read) -> Result<(MsgType, u32, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    read_payload(r, &header)
}

/// Reads the *first* frame of a connection, sniffing the version byte
/// before committing to a header size. A v1 peer's frames are only 6
/// bytes — blindly reading a v2 header would misreport the mismatch as a
/// truncated transport error (or worse, block on bytes that never come),
/// so the foreign version byte is diagnosed the moment it arrives.
pub fn read_first_frame(r: &mut impl Read) -> Result<(MsgType, u32, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header[..1])?;
    if header[0] != FRAME_VERSION {
        return Err(NetError::VersionMismatch {
            theirs: header[0],
            ours: FRAME_VERSION,
        });
    }
    r.read_exact(&mut header[1..])?;
    read_payload(r, &header)
}

/// The most a payload read reserves before any of the payload arrives.
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// Decodes `header` and reads the payload it announces into a buffer that
/// grows with the bytes received: each step reserves at most what has
/// arrived so far (and at least [`PAYLOAD_CHUNK`]), so a header that
/// announces [`MAX_PAYLOAD`] costs only what the peer actually sends.
fn read_payload(
    r: &mut impl Read,
    header: &[u8; HEADER_LEN],
) -> Result<(MsgType, u32, Vec<u8>), NetError> {
    let h = decode_header(header)?;
    let len = h.len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(payload.len().max(PAYLOAD_CHUNK));
        payload.reserve_exact(step);
        if r.by_ref().take(step as u64).read_to_end(&mut payload)? < step {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame cut short").into());
        }
    }
    Ok((h.ty, h.frame_id, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Query, 7, b"q = SELECT X WHERE X:<a/>").unwrap();
        write_frame(&mut buf, MsgType::Hello, 1, b"").unwrap();
        let mut r = Cursor::new(buf);
        let (ty, id, p) = read_frame(&mut r).unwrap();
        assert_eq!(ty, MsgType::Query);
        assert_eq!(id, 7);
        assert_eq!(p, b"q = SELECT X WHERE X:<a/>");
        let (ty, id, p) = read_frame(&mut r).unwrap();
        assert_eq!(ty, MsgType::Hello);
        assert_eq!(id, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn frame_ids_survive_the_full_u32_range() {
        for id in [0, 1, 0x1234_5678, u32::MAX] {
            let mut buf = Vec::new();
            write_frame(&mut buf, MsgType::Answer, id, b"x").unwrap();
            let (_, got, _) = read_frame(&mut Cursor::new(buf)).unwrap();
            assert_eq!(got, id);
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Hello, 1, b"").unwrap();
        buf[0] = 9;
        match read_frame(&mut Cursor::new(buf)) {
            Err(NetError::VersionMismatch { theirs: 9, ours }) => {
                assert_eq!(ours, FRAME_VERSION)
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_frame_is_a_version_mismatch_not_garbage() {
        // a v1 peer's Hello is only 6 bytes: [1, 0, 0,0,0,0] — the
        // sniffing first-frame reader must flag the version byte instead
        // of blocking for (or misreading) a 10-byte v2 header that will
        // never arrive
        let mut buf = Vec::new();
        write_frame_v1(&mut buf, MsgType::Hello, b"").unwrap();
        match read_first_frame(&mut Cursor::new(buf)) {
            Err(NetError::VersionMismatch { theirs: 1, ours: 2 }) => {}
            other => panic!("expected v1-vs-v2 mismatch, got {other:?}"),
        }
    }

    #[test]
    fn first_frame_reader_accepts_a_v2_frame_whole() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Answer, 42, b"<r/>").unwrap();
        let (ty, id, payload) = read_first_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(
            (ty, id, payload.as_slice()),
            (MsgType::Answer, 42, &b"<r/>"[..])
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Hello, 1, b"").unwrap();
        buf[1] = 77;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_announcement_rejected_without_allocating() {
        let mut buf = vec![FRAME_VERSION, MsgType::Answer as u8];
        buf.extend_from_slice(&1u32.to_be_bytes()); // frame id
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_is_a_transport_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Answer, 3, b"<r><a>1</a></r>").unwrap();
        buf.truncate(buf.len() - 4); // disconnect mid-payload
        match read_frame(&mut Cursor::new(buf)) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected io error, got {other:?}"),
        }
    }

    /// Serves its bytes, then EOF, and records the size of every buffer
    /// it is offered.
    struct Recording {
        bytes: Cursor<Vec<u8>>,
        offered: Vec<usize>,
    }

    impl Read for Recording {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.offered.push(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn an_announced_payload_is_read_into_what_arrived() {
        for first in [false, true] {
            let mut r = Recording {
                bytes: Cursor::new(encode_header(MsgType::Answer, 3, MAX_PAYLOAD).to_vec()),
                offered: Vec::new(),
            };
            let got = if first {
                read_first_frame(&mut r)
            } else {
                read_frame(&mut r)
            };
            match got {
                Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("expected io error, got {other:?}"),
            }
            let largest = r.offered.iter().max().copied().unwrap_or(0);
            assert!(largest <= 64 * 1024, "offered a {largest} byte buffer");
        }
        // a payload past the first chunk still arrives whole
        let payload: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Answer, 5, &payload).unwrap();
        let (_, _, got) = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn decode_header_matches_encode_header() {
        let raw = encode_header(MsgType::Stats, 42, 17);
        let h = decode_header(&raw).unwrap();
        assert_eq!(
            h,
            FrameHeader {
                ty: MsgType::Stats,
                frame_id: 42,
                len: 17
            }
        );
    }
}
