//! The protocol's messages, as values.
//!
//! A [`Msg`] is the typed view of one frame: the [`crate::frame::MsgType`]
//! byte plus the payload decoded as UTF-8 text. Payloads are the *text
//! serializations* the rest of the workspace already round-trips — DTDs
//! in the paper's compact notation (`mix_dtd::parse_compact` ↔
//! `Display`), XMAS queries (`mix_xmas::parse_query` ↔ `Display`), and
//! XML documents (`mix_xml::parse_document` ↔ `write_document`) — so this
//! module never needs to know their grammars.
//!
//! The frame id travels *beside* the message, not inside it: a `Msg` is
//! the same value whether it is request 1 or request 900, so
//! [`Msg::write_to`] takes the id and [`Msg::read_from`] returns it.

use crate::error::NetError;
use crate::frame::{read_frame, write_frame, MsgType, HEADER_LEN};
use std::borrow::Cow;
use std::io::{Read, Write};

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Handshake. First frame in each direction on every connection.
    Hello,
    /// Request form (empty) and response form (the exported DTD's compact
    /// text) share the type byte; direction disambiguates.
    ExportDtd(String),
    /// An XMAS query to answer; the empty string requests the full
    /// exported document (wrapper `fetch`).
    Query(String),
    /// An answer document as XML text.
    Answer(String),
    /// A remote fault: stable kind label + human-readable detail.
    Err {
        /// Stable machine-readable fault label (`SourceError::kind()`).
        kind: String,
        /// Human-readable detail.
        msg: String,
    },
    /// Observability-snapshot exchange (what `mixctl stats` speaks).
    /// Request form (empty) and response form (a `mix-obs/1` JSON
    /// snapshot) share the type byte; direction disambiguates.
    Stats(String),
    /// Admission control shed the request before dispatching it: the
    /// client should back off at least this many milliseconds. Payload is
    /// the decimal number.
    Throttled {
        /// Suggested minimum backoff, in milliseconds.
        retry_after_ms: u64,
    },
}

impl Msg {
    /// The message's frame type byte.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Msg::Hello => MsgType::Hello,
            Msg::ExportDtd(_) => MsgType::ExportDtd,
            Msg::Query(_) => MsgType::Query,
            Msg::Answer(_) => MsgType::Answer,
            Msg::Err { .. } => MsgType::Err,
            Msg::Stats(_) => MsgType::Stats,
            Msg::Throttled { .. } => MsgType::Throttled,
        }
    }

    /// The payload's bytes, borrowed from the message where it holds them
    /// whole.
    fn payload(&self) -> Cow<'_, [u8]> {
        match self {
            Msg::Hello => Cow::Borrowed(&[]),
            Msg::ExportDtd(s) | Msg::Query(s) | Msg::Answer(s) | Msg::Stats(s) => {
                Cow::Borrowed(s.as_bytes())
            }
            Msg::Err { kind, msg } => Cow::Owned(format!("{kind}\n{msg}").into_bytes()),
            Msg::Throttled { retry_after_ms } => {
                Cow::Owned(retry_after_ms.to_string().into_bytes())
            }
        }
    }

    /// The exact number of bytes this message occupies on the wire
    /// (10-byte v2 frame header + payload) — what the traffic counters
    /// record.
    pub fn wire_size(&self) -> u64 {
        let payload = match self {
            Msg::Hello => 0,
            Msg::ExportDtd(s) | Msg::Query(s) | Msg::Answer(s) | Msg::Stats(s) => s.len(),
            Msg::Err { kind, msg } => kind.len() + 1 + msg.len(),
            Msg::Throttled { retry_after_ms } => {
                // decimal digit count, matching `payload()`
                ((*retry_after_ms).max(1).ilog10() + 1) as usize
            }
        };
        HEADER_LEN as u64 + payload as u64
    }

    /// Writes this message as one frame carrying `frame_id`, and flushes
    /// it.
    pub fn write_to(&self, w: &mut impl Write, frame_id: u32) -> Result<(), NetError> {
        write_frame(w, self.msg_type(), frame_id, &self.payload())
    }

    /// Decodes a message from an already-read frame body — the half of
    /// [`Msg::read_from`] a reader that holds the frame's id needs, so a
    /// payload that is not a message can be answered at the frame's own
    /// scope.
    pub fn decode(ty: MsgType, payload: Vec<u8>) -> Result<Msg, NetError> {
        let text = String::from_utf8(payload)
            .map_err(|_| NetError::protocol("payload is not valid UTF-8"))?;
        Ok(match ty {
            MsgType::Hello => {
                if !text.is_empty() {
                    return Err(NetError::protocol("Hello carries a payload"));
                }
                Msg::Hello
            }
            MsgType::ExportDtd => Msg::ExportDtd(text),
            MsgType::Query => Msg::Query(text),
            MsgType::Answer => Msg::Answer(text),
            MsgType::Err => {
                let (kind, msg) = text.split_once('\n').unwrap_or((text.as_str(), ""));
                Msg::Err {
                    kind: kind.to_owned(),
                    msg: msg.to_owned(),
                }
            }
            MsgType::Stats => Msg::Stats(text),
            MsgType::Throttled => {
                let retry_after_ms = text
                    .parse::<u64>()
                    .map_err(|_| NetError::protocol("Throttled payload is not a decimal u64"))?;
                Msg::Throttled { retry_after_ms }
            }
        })
    }

    /// Reads one message and its frame id from the stream.
    pub fn read_from(r: &mut impl Read) -> Result<(u32, Msg), NetError> {
        let (ty, frame_id, payload) = read_frame(r)?;
        Ok((frame_id, Msg::decode(ty, payload)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(m: Msg) -> Msg {
        let mut buf = Vec::new();
        m.write_to(&mut buf, 5).unwrap();
        let (id, got) = Msg::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(id, 5);
        got
    }

    #[test]
    fn all_messages_roundtrip() {
        for m in [
            Msg::Hello,
            Msg::ExportDtd("{<r : a*> <a : PCDATA>}".into()),
            Msg::ExportDtd(String::new()),
            Msg::Query("q = SELECT X WHERE X:<a/>".into()),
            Msg::Query(String::new()),
            Msg::Answer("<r><a>1</a></r>".into()),
            Msg::Err {
                kind: "unavailable".into(),
                msg: "circuit open for 'site3'".into(),
            },
            Msg::Stats(String::new()),
            Msg::Stats(r#"{"counters":{},"schema":"mix-obs/1"}"#.into()),
            Msg::Throttled { retry_after_ms: 0 },
            Msg::Throttled { retry_after_ms: 1 },
            Msg::Throttled {
                retry_after_ms: 12_500,
            },
        ] {
            assert_eq!(roundtrip(m.clone()), m);
        }
    }

    #[test]
    fn wire_size_matches_the_encoded_frame() {
        for m in [
            Msg::Hello,
            Msg::Query("q = SELECT X WHERE X:<a/>".into()),
            Msg::Err {
                kind: "timeout".into(),
                msg: "deadline".into(),
            },
            Msg::Stats("{}".into()),
            Msg::Throttled { retry_after_ms: 0 },
            Msg::Throttled { retry_after_ms: 9 },
            Msg::Throttled { retry_after_ms: 10 },
            Msg::Throttled {
                retry_after_ms: 123_456,
            },
        ] {
            let mut buf = Vec::new();
            m.write_to(&mut buf, 1).unwrap();
            assert_eq!(m.wire_size(), buf.len() as u64, "{m:?}");
        }
    }

    #[test]
    fn malformed_throttle_payload_rejected() {
        let mut buf = Vec::new();
        crate::frame::write_frame(&mut buf, MsgType::Throttled, 1, b"soon").unwrap();
        assert!(matches!(
            Msg::read_from(&mut Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn err_detail_may_contain_newlines() {
        let m = Msg::Err {
            kind: "dtd-invalid".into(),
            msg: "line 1\nline 2".into(),
        };
        assert_eq!(roundtrip(m.clone()), m);
    }

    #[test]
    fn non_utf8_payload_rejected() {
        let mut buf = Vec::new();
        crate::frame::write_frame(&mut buf, MsgType::Answer, 1, &[0xff, 0xfe]).unwrap();
        assert!(matches!(
            Msg::read_from(&mut Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }
}
