//! Mediator stacking (Section 1): "mediators can be stacked on top of
//! mediators. In this case it is important that the lower level mediators
//! can derive and provide their view DTDs to the higher level ones."
//!
//! [`ViewWrapper`] exports one registered view of a lower mediator as a
//! [`Wrapper`]: its DTD is the *inferred* view DTD, its document is the
//! materialized view, and it answers queries through the lower mediator's
//! query processor (emptiness pruning and composition included), so a
//! query the view DTD proves empty is answered without touching the
//! lower sources. An upper mediator reaches a stacked view only through
//! [`Wrapper::answer`].

use crate::error::SourceError;
use crate::mediator::{Answer, Mediator, MediatorError};
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
        self.settle(q, self.mediator.query(q))
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        self.mediator
            .answer_many(queries)
            .into_iter()
            .zip(queries)
            .map(|(r, q)| self.settle(q, r))
            .collect()
    }
}

impl ViewWrapper {
    /// Turns the lower mediator's result for `q` into this wrapper's.
    /// Lower-source failures propagate up as source faults of this
    /// wrapper, so a stacked mediator's own resilience layer can retry,
    /// trip or degrade on them, and a query that fails normalization is
    /// a [`SourceError::Query`]. Only a query the lower mediator cannot
    /// route (its root test names no registered view, e.g. a wildcard)
    /// is evaluated here — normalized against the view DTD — over the
    /// materialized view.
    fn settle(
        &self,
        q: &Query,
        result: Result<Answer, MediatorError>,
    ) -> Result<Document, SourceError> {
        match result {
            Ok(a) => Ok(a.document),
            Err(MediatorError::UnknownView(_)) => {
                let nq = mix_xmas::normalize(q, self.dtd())?;
                Ok(mix_xmas::evaluate(&nq, &self.fetch()?))
            }
            Err(e) => Err(as_source_error(e)),
        }
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

    /// A query that fails normalization is rejected with the same
    /// `Query` error an in-process source gives, not evaluated raw.
    #[test]
    fn unnormalizable_queries_are_rejected_not_evaluated() {
        let wrapper = ViewWrapper::new(lower(), name("withJournals")).unwrap();
        let q = parse_query("ans = SELECT Z WHERE <withJournals> X:<professor/> </>").unwrap();
        let expected = Err(SourceError::Query(mix_xmas::NormalizeError::PickNotBound(
            mix_xmas::Var::new("Z"),
        )));
        assert_eq!(wrapper.answer(&q), expected);
        assert_eq!(wrapper.answer_batch(std::slice::from_ref(&q)), [expected]);
        // a wildcard root names no view: evaluated over the materialized
        // view, normalized against the view DTD
        let any = parse_query("ans = SELECT X WHERE <*> X:<professor/> </>").unwrap();
        assert_eq!(wrapper.answer(&any).unwrap().root.children().len(), 1);
    }

    #[test]
    fn unknown_view_not_exported() {
        let low = lower();
        assert!(ViewWrapper::new(low, name("nope")).is_none());
    }
}
