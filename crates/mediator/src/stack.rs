//! Mediator stacking (Section 1): "mediators can be stacked on top of
//! mediators. In this case it is important that the lower level mediators
//! can derive and provide their view DTDs to the higher level ones."
//!
//! [`ViewWrapper`] exports one registered view of a lower mediator as a
//! [`Wrapper`]: its DTD is the *inferred* view DTD, its document is the
//! materialized view, and it answers queries through the lower mediator's
//! query processor (emptiness pruning and composition included), so a
//! query the view DTD proves empty is answered without touching the
//! lower sources.

use crate::error::SourceError;
use crate::mediator::{Mediator, MediatorError};
use crate::source::Wrapper;
use mix_dtd::Dtd;
use mix_relang::symbol::Name;
use mix_xmas::Query;
use mix_xml::Document;
use std::sync::Arc;

/// Folds a lower mediator's failure into the source fault model the
/// upper mediator understands: the wrapped view *is* a source up there.
fn as_source_error(e: MediatorError) -> SourceError {
    match e {
        MediatorError::Source { error, .. } => error,
        MediatorError::Normalize(e) => SourceError::Query(e),
        other => SourceError::Unavailable(other.to_string()),
    }
}

/// One view of a lower-level mediator, exported as a source for a
/// higher-level mediator.
pub struct ViewWrapper {
    mediator: Arc<Mediator>,
    view: Name,
}

impl ViewWrapper {
    /// Exports `view` of `mediator` (single-source or union). Returns
    /// `None` if no such view is registered.
    pub fn new(mediator: Arc<Mediator>, view: Name) -> Option<ViewWrapper> {
        mediator.view_dtd(view)?;
        Some(ViewWrapper { mediator, view })
    }
}

impl Wrapper for ViewWrapper {
    fn dtd(&self) -> &Dtd {
        self.mediator
            .view_dtd(self.view)
            .expect("checked at construction")
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.mediator
            .materialize(self.view)
            .map_err(as_source_error)
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        match self.mediator.query(q) {
            Ok(a) => Ok(a.document),
            // lower-source failures propagate up as source faults of this
            // wrapper, so a stacked mediator's own resilience layer can
            // retry / trip / degrade on them
            Err(e @ MediatorError::Source { .. }) | Err(e @ MediatorError::AllSourcesFailed(_)) => {
                Err(as_source_error(e))
            }
            // queries the lower mediator cannot route (e.g. root test not
            // naming the view) evaluate over the materialized document
            Err(_) => {
                let doc = self.fetch()?;
                Ok(mix_xmas::evaluate(q, &doc))
            }
        }
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        self.mediator
            .answer_many(queries)
            .into_iter()
            .zip(queries)
            .map(|(r, q)| match r {
                Ok(a) => Ok(a.document),
                Err(e @ MediatorError::Source { .. })
                | Err(e @ MediatorError::AllSourcesFailed(_)) => Err(as_source_error(e)),
                Err(_) => {
                    let doc = self.fetch()?;
                    Ok(mix_xmas::evaluate(q, &doc))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::Mediator;
    use crate::source::XmlSource;
    use mix_dtd::paper::d1_department;
    use mix_relang::symbol::name;
    use mix_xmas::parse_query;
    use mix_xml::parse_document;

    fn lower() -> Arc<Mediator> {
        let mut m = Mediator::new();
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>a</title><author>x</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>d</title><author>x</author><journal/></publication>\
               </gradStudent></department>",
        )
        .unwrap();
        m.add_source(
            "cs",
            Arc::new(XmlSource::new(d1_department(), doc).unwrap()),
        );
        let v = parse_query(
            "withJournals = SELECT P WHERE <department> \
               P:<professor | gradStudent> <publication><journal/></publication> </> </>",
        )
        .unwrap();
        m.register_view("cs", &v).unwrap();
        Arc::new(m)
    }

    #[test]
    fn stacked_mediator_infers_from_view_dtd() {
        let low = lower();
        let wrapper = ViewWrapper::new(low.clone(), name("withJournals")).unwrap();
        // the exported DTD is the inferred view DTD
        assert_eq!(wrapper.dtd().doc_type, name("withJournals"));

        let mut upper = Mediator::new();
        upper.add_source("low", Arc::new(wrapper));
        let v2 =
            parse_query("profOnly = SELECT X WHERE <withJournals> X:<professor/> </withJournals>")
                .unwrap();
        let view2 = upper.register_view("low", &v2).unwrap();
        // the upper mediator inferred a DTD over the *view* DTD
        let root = view2
            .inferred
            .dtd
            .get(name("profOnly"))
            .unwrap()
            .regex()
            .unwrap();
        assert!(mix_relang::equivalent(
            root,
            &mix_relang::parse_regex("professor*").unwrap()
        ));
        // and querying through both levels works
        let q = parse_query("ans = SELECT F WHERE <profOnly> <professor> F:<firstName/> </> </>")
            .unwrap();
        let a = upper.query(&q).unwrap();
        assert_eq!(a.document.root.children().len(), 1);
        assert_eq!(a.document.root.children()[0].pcdata(), Some("Y"));
    }

    #[test]
    fn unknown_view_not_exported() {
        let low = lower();
        assert!(ViewWrapper::new(low, name("nope")).is_none());
    }
}
