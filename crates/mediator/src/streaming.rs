//! Streaming source evaluation — wrapping documents that don't fit in
//! memory.
//!
//! [`StreamingWrapper`] exports a document that lives behind an
//! [`std::io::Read`] factory (a file, a socket, a decompressor) and
//! answers queries by **streaming**: the query is compiled against the
//! source DTD ([`mix_stream::CompiledQuery`]) and evaluated in one pass
//! over the bytes, so the resident state is bounded by document depth
//! and pattern size rather than document size.
//!
//! Not every XMAS query is streamable — `!=` constraints need the
//! in-memory join. The wrapper *falls back* transparently: unsupported
//! queries materialize the document through [`Wrapper::fetch`] and run
//! the ordinary evaluator, producing byte-identical answers either way.
//! Both paths are observable: `stream_queries_streamed_total` and
//! `stream_queries_fallback_total` count which path served each query.

use crate::error::SourceError;
use crate::source::Wrapper;
use mix_dtd::Dtd;
use mix_stream::{stream_answer, CompiledQuery, StreamError, StreamStats};
use mix_xmas::{evaluate, normalize, Query};
use mix_xml::Document;
use std::io::Read;
use std::path::PathBuf;

/// The factory producing a fresh byte stream of the source document for
/// each evaluation pass.
pub type StreamFactory = Box<dyn Fn() -> Result<Box<dyn Read + Send>, SourceError> + Send + Sync>;

/// A wrapper over a re-openable byte stream, answering streamable
/// queries in one bounded-state pass and falling back to the in-memory
/// evaluator for the rest.
pub struct StreamingWrapper {
    dtd: Dtd,
    open: StreamFactory,
    streamed: mix_obs::Counter,
    fallbacks: mix_obs::Counter,
}

impl std::fmt::Debug for StreamingWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingWrapper").finish_non_exhaustive()
    }
}

/// Which path served a query, with the streaming resource profile when
/// the streaming path ran.
#[derive(Debug)]
pub enum ServedBy {
    /// One-pass streaming evaluation.
    Streamed(StreamStats),
    /// Materialize-and-evaluate fallback; the payload says why the query
    /// was not streamable.
    Fallback(mix_stream::Unsupported),
}

impl StreamingWrapper {
    /// Wraps a stream factory. The DTD is trusted as the contract for
    /// what the stream serves (it drives both normalization and the
    /// streaming matcher's DTD pruning); a stream that violates it may
    /// lose the pruned matches, exactly like a source that lies to its
    /// mediator.
    pub fn new(dtd: Dtd, open: StreamFactory) -> StreamingWrapper {
        StreamingWrapper {
            dtd,
            open,
            streamed: mix_obs::global().counter("stream_queries_streamed_total"),
            fallbacks: mix_obs::global().counter("stream_queries_fallback_total"),
        }
    }

    /// A wrapper streaming from a file path, re-opened per pass.
    pub fn from_file(dtd: Dtd, path: impl Into<PathBuf>) -> StreamingWrapper {
        let path = path.into();
        StreamingWrapper::new(
            dtd,
            Box::new(move || match std::fs::File::open(&path) {
                Ok(f) => Ok(Box::new(f) as Box<dyn Read + Send>),
                Err(e) => Err(SourceError::Unavailable(format!("{}: {e}", path.display()))),
            }),
        )
    }

    /// Answers `q`, reporting which path served it. The answer is
    /// byte-identical between the two paths.
    pub fn answer_traced(&self, q: &Query) -> Result<(Document, ServedBy), SourceError> {
        let nq = normalize(q, &self.dtd)?;
        match CompiledQuery::compile(&nq, Some(&self.dtd)) {
            Ok(cq) => {
                let src = (self.open)()?;
                let (doc, stats) = stream_answer(src, &cq).map_err(stream_to_source_error)?;
                self.streamed.inc();
                Ok((doc, ServedBy::Streamed(stats)))
            }
            Err(unsupported) => {
                self.fallbacks.inc();
                let doc = self.fetch()?;
                Ok((evaluate(&nq, &doc), ServedBy::Fallback(unsupported)))
            }
        }
    }
}

fn stream_to_source_error(e: StreamError) -> SourceError {
    match e {
        StreamError::Io(e) => SourceError::Unavailable(format!("stream: {e}")),
        StreamError::Parse(e) => SourceError::MalformedXml(format!("stream: {e}")),
    }
}

impl Wrapper for StreamingWrapper {
    fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Materializes the whole document — the fallback path and the
    /// escape hatch for callers that genuinely need the tree. This is
    /// the one operation whose memory is proportional to the document.
    fn fetch(&self) -> Result<Document, SourceError> {
        mix_xml::read_document((self.open)()?).map_err(stream_to_source_error)
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        self.answer_traced(q).map(|(doc, _)| doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_xmas::parse_query;
    use mix_xml::{write_document, WriteConfig};

    const DOC: &str = "<department><name>CS</name>\
        <professor><firstName>Y</firstName><lastName>P</lastName>\
          <publication id='p1'><title>t</title><author>a</author><journal/></publication>\
          <publication id='p2'><title>u</title><author>a</author><journal/></publication>\
          <teaches/></professor>\
        <gradStudent><firstName>P</firstName><lastName>V</lastName>\
          <publication><title>u</title><author>a</author><conference/></publication>\
        </gradStudent></department>";

    fn wrapper() -> StreamingWrapper {
        StreamingWrapper::new(
            d1_department(),
            Box::new(|| Ok(Box::new(DOC.as_bytes()) as Box<dyn Read + Send>)),
        )
    }

    fn xml(d: &Document) -> String {
        write_document(d, WriteConfig::default())
    }

    #[test]
    fn streamed_answers_match_the_in_memory_evaluator() {
        let w = wrapper();
        let q = parse_query(
            "profs = SELECT P WHERE <department> <name>CS</name> P:<professor/> </department>",
        )
        .unwrap();
        let (doc, served) = w.answer_traced(&q).unwrap();
        assert!(matches!(served, ServedBy::Streamed(_)), "got {served:?}");
        let reference = evaluate(&normalize(&q, w.dtd()).unwrap(), &w.fetch().unwrap());
        assert_eq!(xml(&doc), xml(&reference));
    }

    #[test]
    fn diseq_queries_fall_back_with_identical_answers() {
        let w = wrapper();
        let before = mix_obs::global()
            .counter("stream_queries_fallback_total")
            .get();
        let q = parse_query(
            "multi = SELECT P WHERE <department> P:<professor> \
               <publication id=A/> <publication id=B/> </> </department> AND A != B",
        )
        .unwrap();
        let (doc, served) = w.answer_traced(&q).unwrap();
        assert!(
            matches!(
                served,
                ServedBy::Fallback(mix_stream::Unsupported::Diseqs(1))
            ),
            "got {served:?}"
        );
        let reference = evaluate(&normalize(&q, w.dtd()).unwrap(), &w.fetch().unwrap());
        assert_eq!(xml(&doc), xml(&reference));
        assert_eq!(doc.root.children().len(), 1);
        let after = mix_obs::global()
            .counter("stream_queries_fallback_total")
            .get();
        assert!(after > before, "fallback must be counted");
    }

    #[test]
    fn streaming_stats_are_reported() {
        let w = wrapper();
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        let (_, served) = w.answer_traced(&q).unwrap();
        let ServedBy::Streamed(stats) = served else {
            panic!("expected the streaming path");
        };
        assert_eq!(stats.answers, 1);
        assert_eq!(stats.bytes_read as usize, DOC.len());
        assert!(stats.peak_state_bytes() > 0);
    }

    #[test]
    fn from_file_streams_and_reports_missing_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mix_streaming_test_{}.xml", std::process::id()));
        std::fs::write(&path, DOC).unwrap();
        let w = StreamingWrapper::from_file(d1_department(), &path);
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        assert_eq!(w.answer(&q).unwrap().root.children().len(), 1);
        std::fs::remove_file(&path).unwrap();
        match w.answer(&q) {
            Err(SourceError::Unavailable(_)) => {}
            other => panic!("expected Unavailable for a vanished file, got {other:?}"),
        }
    }

    #[test]
    fn malformed_streams_are_a_source_fault() {
        let w = StreamingWrapper::new(
            d1_department(),
            Box::new(|| Ok(Box::new("<department><nope".as_bytes()) as Box<dyn Read + Send>)),
        );
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        match w.answer(&q) {
            Err(SourceError::MalformedXml(_)) => {}
            other => panic!("expected MalformedXml, got {other:?}"),
        }
    }

    #[test]
    fn unnormalizable_queries_stay_structured() {
        let w = wrapper();
        let q =
            parse_query("v = SELECT Z WHERE <department> P:<professor/> </department>").unwrap();
        match w.answer(&q) {
            Err(SourceError::Query(_)) => {}
            other => panic!("expected Query error, got {other:?}"),
        }
    }
}
