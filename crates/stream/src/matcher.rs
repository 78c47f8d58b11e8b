//! One-pass evaluation of a [`CompiledQuery`] over an event stream.
//!
//! The matcher keeps a **stack of active pattern states**: one frame per
//! open element, each holding the pattern nodes the element is still a
//! viable match for. Everything else about the document is forgotten the
//! moment an element closes, so the live state is `O(depth × pattern)`
//! plus whatever answers cannot be emitted yet — never the document.
//!
//! The one genuinely hard part of pick-element semantics under streaming
//! is that an element can be *picked* long before the conditions that
//! justify picking it are observable. In
//!
//! ```text
//! v = SELECT P WHERE <department> P:<professor/> <course/> </department>
//! ```
//!
//! a professor streams past before we know whether the department has a
//! course. The matcher therefore splits every root-to-pick ancestor's
//! sibling conditions into the **on-path** child (satisfied structurally,
//! by the descent itself) and **filters** (everything else). A closing
//! pick element becomes a *candidate*: its subtree is captured with fresh
//! IDs and queued, and each ancestor level where the filters are not yet
//! satisfied is recorded as an unresolved obligation. Candidates resolve
//! as later siblings close, die when an ancestor closes with filters
//! still unmet, and are emitted strictly in document order (FIFO).
//!
//! Filters must be matched by **distinct** children (and none of them may
//! be the chain child the candidate descended through), mirroring the
//! in-memory evaluator's injective sibling matching. With at most
//! [`MAX_SIBLING_CONDS`](crate::compile::MAX_SIBLING_CONDS) sibling
//! conditions, a closing child is summarized by its *class* — the bitmask
//! of sibling conditions it satisfies on its own — and per-class counts
//! support an exact Hall's-condition check (`hall`): a set of conditions
//! has a system of distinct representatives iff every subset `U` has at
//! least `|U|` counted children whose class meets `U`. The same idea
//! bounds each element's own satisfiability check: `reach` is the bitset
//! of child-condition subsets coverable by distinct already-closed
//! children.

use crate::compile::{CompiledQuery, Mask, PKind};
use mix_relang::symbol::Name;
use mix_xml::{
    write_element_at, Content, Document, ElemId, Element, EventReader, StreamError, WriteConfig,
    XmlEvent,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::mem::size_of;

/// Resource profile of one streaming evaluation.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Total events pulled from the reader.
    pub events: u64,
    /// Elements seen (open events).
    pub elements: u64,
    /// Maximum element nesting depth.
    pub max_depth: usize,
    /// Answer elements emitted.
    pub answers: u64,
    /// High-water estimate of live matcher state in bytes: frames,
    /// tracked pattern nodes, Hall counters, and queued-but-unresolved
    /// answer subtrees. Excludes the reader's I/O buffer (see
    /// [`reader_buffer_high_water`](Self::reader_buffer_high_water)).
    pub peak_matcher_bytes: usize,
    /// Most candidates queued awaiting ancestor resolution at once.
    pub peak_buffered_answers: usize,
    /// Most captured answer nodes held at once (queued + in capture).
    pub peak_buffered_answer_nodes: u64,
    /// The event reader's window high-water mark in bytes.
    pub reader_buffer_high_water: usize,
    /// Total bytes consumed from the source.
    pub bytes_read: u64,
}

impl StreamStats {
    /// Peak resident state of the pass: matcher plus the reader's
    /// window. It leaves out two things that grow with the number of
    /// explicit `id` attributes in the document: the reader's set of the
    /// IDs read so far (a repeat is rejected where it occurs), and the
    /// ID values `ElemId::named` interns into the name table, which
    /// never shrinks.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_matcher_bytes + self.reader_buffer_high_water
    }
}

/// One pattern node this open element is still a viable match for.
struct Tracked {
    node: u16,
    /// Bit `m` set ⇔ the subset `m` of the node's child conditions is
    /// coverable by distinct already-closed children.
    reach: u64,
}

/// Pick-path bookkeeping on an ancestor frame (present iff the frame is
/// a viable match for its depth's path node).
struct PickState {
    /// The node's child conditions minus the on-path child.
    filters: Mask,
    /// Closed children by class (mask of filters each satisfies alone);
    /// class-0 children are not stored.
    counts: Vec<(Mask, u32)>,
    /// Candidates below the currently open chain child whose filters
    /// here are not yet satisfied.
    watchers: Vec<u64>,
    /// Unresolved candidates from already-closed chain children, grouped
    /// by the chain child's class (which must be excluded from the Hall
    /// check — the chain child cannot double as a filter witness).
    pending: Vec<(Mask, Vec<u64>)>,
}

struct Frame {
    text: Option<String>,
    tracked: Vec<Tracked>,
    pick: Option<PickState>,
}

/// A picked element whose ancestor filter obligations may be open.
struct Candidate {
    elem: Option<Element>,
    remaining: u32,
    dead: bool,
    nodes: u64,
}

/// A capture-in-progress node (subtree of a potential pick element).
struct Builder {
    name: Name,
    children: Vec<Element>,
}

/// Hall's condition: can every nonempty `U ⊆ filters` be covered by
/// `|U|` distinct counted children whose class meets `U`? `excl` (when
/// nonzero) reserves one child of exactly that class for the on-path
/// descent.
fn hall(filters: Mask, counts: &[(Mask, u32)], excl: Mask) -> bool {
    let mut u = filters;
    while u != 0 {
        let mut have: u64 = 0;
        for &(c, n) in counts {
            if c & u != 0 {
                have += u64::from(n);
            }
        }
        if excl & u != 0 {
            have = have.saturating_sub(1);
        }
        if have < u64::from(u.count_ones()) {
            return false;
        }
        u = (u - 1) & filters;
    }
    true
}

/// Folds a closed child of class `s` into a reach bitset: from every
/// coverable subset `m`, each single condition `b ∈ s \ m` extends the
/// cover to `m ∪ {b}` (the child serves exactly one condition).
fn expand(reach: u64, s: Mask) -> u64 {
    let mut out = reach;
    let mut ms = reach;
    while ms != 0 {
        let m = ms.trailing_zeros() as u64;
        ms &= ms - 1;
        let mut bits = u64::from(s) & !m;
        while bits != 0 {
            let b = bits & bits.wrapping_neg();
            out |= 1u64 << (m | b);
            bits &= bits - 1;
        }
    }
    out
}

struct Matcher<'q, F: FnMut(Element)> {
    cq: &'q CompiledQuery,
    frames: Vec<Frame>,
    queue: VecDeque<Candidate>,
    first_id: u64,
    builders: Vec<Builder>,
    capture_count: u64,
    buffered_nodes: u64,
    emit: F,
    stats: StreamStats,
}

impl<'q, F: FnMut(Element)> Matcher<'q, F> {
    fn new(cq: &'q CompiledQuery, emit: F) -> Self {
        Matcher {
            cq,
            frames: Vec::new(),
            queue: VecDeque::new(),
            first_id: 0,
            builders: Vec::new(),
            capture_count: 0,
            buffered_nodes: 0,
            emit,
            stats: StreamStats::default(),
        }
    }

    fn open(&mut self, name: Name) {
        let depth = self.frames.len();
        let mut tracked = Vec::new();
        if depth == 0 {
            if self.cq.admits(self.cq.pick_path[0], name) {
                tracked.push(Tracked {
                    node: self.cq.pick_path[0],
                    reach: 1,
                });
            }
        } else {
            let parent = self.frames.last().expect("depth > 0");
            for t in &parent.tracked {
                if let PKind::Children(kids) = &self.cq.nodes[t.node as usize].kind {
                    for &kid in kids {
                        if self.cq.admits(kid, name) {
                            tracked.push(Tracked {
                                node: kid,
                                reach: 1,
                            });
                        }
                    }
                }
            }
        }

        if !self.builders.is_empty() {
            // inside a capture: every opened element becomes a node
            self.builders.push(Builder {
                name,
                children: Vec::new(),
            });
            self.capture_count += 1;
        } else if depth == self.cq.pick_depth()
            && tracked.iter().any(|t| t.node == self.cq.pick_node())
        {
            // a potential pick element: start capturing its subtree
            self.builders.push(Builder {
                name,
                children: Vec::new(),
            });
            self.capture_count = 1;
        }

        let pick = if depth < self.cq.pick_depth()
            && tracked.iter().any(|t| t.node == self.cq.pick_path[depth])
        {
            Some(PickState {
                filters: self.cq.filters[depth],
                counts: Vec::new(),
                watchers: Vec::new(),
                pending: Vec::new(),
            })
        } else {
            None
        };

        self.frames.push(Frame {
            text: None,
            tracked,
            pick,
        });
        self.stats.max_depth = self.stats.max_depth.max(depth + 1);
    }

    fn text(&mut self, t: String) {
        let f = self.frames.last_mut().expect("text inside an element");
        // only keep the text when someone can observe it: a tracked
        // text condition, or an active capture
        let needed = !self.builders.is_empty()
            || f.tracked
                .iter()
                .any(|tr| matches!(self.cq.nodes[tr.node as usize].kind, PKind::Text(_)));
        if needed {
            f.text = Some(t);
        }
    }

    fn close(&mut self, name: Name) {
        let f = self.frames.pop().expect("close matches an open");
        let f_depth = self.frames.len();

        // 1. which tracked nodes does the closing element satisfy alone?
        let sats: Vec<bool> = f
            .tracked
            .iter()
            .map(|t| match &self.cq.nodes[t.node as usize].kind {
                PKind::Text(s) => f.text.as_deref() == Some(s.as_str()),
                PKind::Children(_) => {
                    (t.reach >> self.cq.nodes[t.node as usize].full_mask()) & 1 == 1
                }
            })
            .collect();

        // 2. finish this element's capture node, if capturing
        let mut finished: Option<Element> = None;
        if let Some(b) = self.builders.pop() {
            debug_assert_eq!(b.name, name);
            let content = match &f.text {
                Some(t) => Content::Text(t.clone()),
                None => Content::Elements(b.children),
            };
            let elem = Element {
                name: b.name,
                id: ElemId::fresh(),
                content,
            };
            match self.builders.last_mut() {
                Some(parent) => parent.children.push(elem),
                None => finished = Some(elem),
            }
        }

        // 3. obligations owed to this frame die with it
        if let Some(ps) = &f.pick {
            for (_, ids) in &ps.pending {
                for &id in ids {
                    self.kill(id);
                }
            }
            for &id in &ps.watchers {
                self.kill(id);
            }
        }

        // 4. the element's class per parent-tracked node: which of the
        // parent node's child conditions it satisfies alone
        let mut classes: Vec<(u16, Mask)> = Vec::new();
        for (t, &s) in f.tracked.iter().zip(&sats) {
            if !s {
                continue;
            }
            if let Some((pn, bit)) = self.cq.nodes[t.node as usize].parent {
                match classes.iter_mut().find(|(p, _)| *p == pn) {
                    Some((_, m)) => *m |= 1 << bit,
                    None => classes.push((pn, 1 << bit)),
                }
            }
        }
        let class_of = |pn: u16| {
            classes
                .iter()
                .find(|(p, _)| *p == pn)
                .map(|&(_, m)| m)
                .unwrap_or(0)
        };

        // 5. a satisfied pick element becomes a candidate; ancestor
        // levels whose filters are not yet met (checked against counts
        // of *closed* children only — sound, since the open chain
        // ancestors are not counted) become obligations
        let pick_node = self.cq.pick_node();
        let picked = f_depth == self.cq.pick_depth()
            && f.tracked
                .iter()
                .zip(&sats)
                .any(|(t, &s)| t.node == pick_node && s);
        if picked {
            let elem = finished.take().expect("pick close completes a capture");
            let id = self.first_id + self.queue.len() as u64;
            let mut remaining = 0u32;
            for j in 0..f_depth {
                let on_path_class = if j + 1 == f_depth {
                    // parent level: the chain child is the pick element
                    // itself, closing right now (counted in step 6)
                    Some(class_of(self.cq.pick_path[j]))
                } else {
                    None
                };
                let ps = self.frames[j]
                    .pick
                    .as_mut()
                    .expect("pick descent implies path tracking");
                if ps.filters == 0 || hall(ps.filters, &ps.counts, 0) {
                    continue;
                }
                remaining += 1;
                match on_path_class {
                    Some(ce) => {
                        let ce = ce & ps.filters;
                        match ps.pending.iter_mut().find(|(c, _)| *c == ce) {
                            Some((_, ids)) => ids.push(id),
                            None => ps.pending.push((ce, vec![id])),
                        }
                    }
                    None => ps.watchers.push(id),
                }
            }
            self.queue.push_back(Candidate {
                elem: Some(elem),
                remaining,
                dead: false,
                nodes: self.capture_count,
            });
            self.buffered_nodes += self.capture_count;
            self.capture_count = 0;
        } else if finished.is_some() {
            // captured, but the element did not satisfy the pick node
            self.capture_count = 0;
        }

        // 6. fold the closed child into its parent's state
        let mut resolved: Vec<u64> = Vec::new();
        if let Some(pf) = self.frames.last_mut() {
            for t in &mut pf.tracked {
                let s = class_of(t.node);
                if s != 0 {
                    t.reach = expand(t.reach, s);
                }
            }
            if let Some(ps) = &mut pf.pick {
                let ce = class_of(self.cq.pick_path[f_depth - 1]) & ps.filters;
                if ce != 0 {
                    match ps.counts.iter_mut().find(|(c, _)| *c == ce) {
                        Some((_, n)) => *n += 1,
                        None => ps.counts.push((ce, 1)),
                    }
                }
                // candidates below this child were watching: the chain
                // child has now closed, so their Hall checks must
                // reserve a child of its class from here on
                if !ps.watchers.is_empty() {
                    let ids = std::mem::take(&mut ps.watchers);
                    match ps.pending.iter_mut().find(|(c, _)| *c == ce) {
                        Some((_, v)) => v.extend(ids),
                        None => ps.pending.push((ce, ids)),
                    }
                }
                // counts changed (or new pending arrived): re-check
                ps.pending.retain(|(c, ids)| {
                    if hall(ps.filters, &ps.counts, *c) {
                        resolved.extend_from_slice(ids);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        for id in resolved {
            self.resolve(id);
        }

        // 7. emit every resolved candidate at the queue front, in
        // document order
        self.drain();
    }

    fn resolve(&mut self, id: u64) {
        // ids below first_id were already drained (dead candidates can
        // leave stale references in upper ancestors' pending lists)
        if id < self.first_id {
            return;
        }
        let idx = (id - self.first_id) as usize;
        let c = &mut self.queue[idx];
        if !c.dead {
            c.remaining -= 1;
        }
    }

    fn kill(&mut self, id: u64) {
        if id < self.first_id {
            return;
        }
        let idx = (id - self.first_id) as usize;
        self.queue[idx].dead = true;
    }

    fn drain(&mut self) {
        while let Some(front) = self.queue.front() {
            if !front.dead && front.remaining > 0 {
                break;
            }
            let mut c = self.queue.pop_front().expect("front exists");
            self.first_id += 1;
            self.buffered_nodes -= c.nodes;
            if !c.dead {
                self.stats.answers += 1;
                (self.emit)(c.elem.take().expect("alive candidates hold their element"));
            }
        }
    }

    /// Estimates live state and records high-water marks. `O(depth)`
    /// per event.
    fn note_state(&mut self) {
        let mut b = self.queue.len() * size_of::<Candidate>()
            + self.buffered_nodes as usize * size_of::<Element>()
            + self.builders.len() * size_of::<Builder>()
            + self.capture_count as usize * size_of::<Element>();
        for f in &self.frames {
            b += size_of::<Frame>()
                + f.tracked.len() * size_of::<Tracked>()
                + f.text.as_ref().map_or(0, |t| t.len());
            if let Some(ps) = &f.pick {
                b += ps.counts.len() * size_of::<(Mask, u32)>()
                    + ps.watchers.len() * size_of::<u64>()
                    + ps.pending
                        .iter()
                        .map(|(_, v)| size_of::<(Mask, Vec<u64>)>() + v.len() * size_of::<u64>())
                        .sum::<usize>();
            }
        }
        self.stats.peak_matcher_bytes = self.stats.peak_matcher_bytes.max(b);
        self.stats.peak_buffered_answers = self.stats.peak_buffered_answers.max(self.queue.len());
        self.stats.peak_buffered_answer_nodes = self
            .stats
            .peak_buffered_answer_nodes
            .max(self.buffered_nodes + self.capture_count);
    }
}

/// Evaluates `cq` over the XML document read from `src`, invoking `emit`
/// for each answer element in document order. Answer elements carry
/// fresh auto IDs, exactly like the in-memory evaluator's deep clones.
pub fn stream_eval<R: Read>(
    src: R,
    cq: &CompiledQuery,
    emit: impl FnMut(Element),
) -> Result<StreamStats, StreamError> {
    let mut reader = EventReader::new(src);
    let mut m = Matcher::new(cq, emit);
    loop {
        match reader.next_event()? {
            XmlEvent::Open { name, .. } => {
                m.stats.events += 1;
                m.stats.elements += 1;
                m.open(name);
            }
            XmlEvent::Text(t) => {
                m.stats.events += 1;
                m.text(t);
            }
            XmlEvent::Close { name } => {
                m.stats.events += 1;
                m.close(name);
            }
            XmlEvent::Eof => break,
        }
        m.note_state();
    }
    debug_assert!(m.queue.is_empty(), "root close settles every candidate");
    let mut stats = m.stats;
    stats.reader_buffer_high_water = reader.buffer_high_water();
    stats.bytes_read = reader.bytes_read();
    Ok(stats)
}

/// Streams `src` and materializes the answer document (root named after
/// the query's view). Byte-compatible with `mix_xmas::evaluate` for
/// queries in the supported fragment.
pub fn stream_answer<R: Read>(
    src: R,
    cq: &CompiledQuery,
) -> Result<(Document, StreamStats), StreamError> {
    let mut members = Vec::new();
    let stats = stream_eval(src, cq, |e| members.push(e))?;
    let doc = Document::new(Element {
        name: cq.view_name,
        id: ElemId::fresh(),
        content: Content::Elements(members),
    });
    Ok((doc, stats))
}

/// Streams `src` and serializes the answer document incrementally into
/// `out`, without ever materializing it. The bytes written are identical
/// to `mix_xml::write_document` applied to [`stream_answer`]'s document.
pub fn stream_answer_to<R: Read, W: Write>(
    src: R,
    cq: &CompiledQuery,
    cfg: WriteConfig,
    out: &mut W,
) -> Result<StreamStats, StreamError> {
    let view = cq.view_name;
    let mut started = false;
    let mut io_err: Option<io::Error> = None;
    {
        let sink = &mut *out;
        let stats = stream_eval(src, cq, |e| {
            if io_err.is_some() {
                return;
            }
            let r = (|| -> io::Result<()> {
                if !started {
                    write!(sink, "<{view}>")?;
                    if cfg.indent.is_some() {
                        sink.write_all(b"\n")?;
                    }
                    started = true;
                }
                write_element_at(&e, cfg, 1, sink)
            })();
            if let Err(e) = r {
                io_err = Some(e);
            }
        })?;
        if let Some(e) = io_err {
            return Err(StreamError::Io(e));
        }
        if started {
            write!(sink, "</{view}>")?;
        } else {
            write!(sink, "<{view}/>")?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledQuery;
    use mix_xmas::{evaluate, parse_query};
    use mix_xml::{parse_document, write_document};

    /// Streaming must agree with the in-memory evaluator byte-for-byte,
    /// and the incremental serializer with the materialized one.
    fn check(query: &str, doc: &str) -> StreamStats {
        let q = parse_query(query).unwrap();
        let cq = CompiledQuery::compile(&q, None).unwrap();
        let parsed = parse_document(doc).unwrap();
        let cfg = WriteConfig::default();
        let expect = write_document(&evaluate(&q, &parsed), cfg);

        let (got, stats) = stream_answer(doc.as_bytes(), &cq).unwrap();
        assert_eq!(write_document(&got, cfg), expect, "query: {query}");

        let mut buf = Vec::new();
        stream_answer_to(doc.as_bytes(), &cq, cfg, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            expect,
            "incremental serializer"
        );

        let compact = WriteConfig {
            indent: None,
            write_ids: true,
        };
        let mut buf = Vec::new();
        stream_answer_to(doc.as_bytes(), &cq, compact, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            write_document(&evaluate(&q, &parsed), compact),
            "compact incremental serializer"
        );
        stats
    }

    const DEPT: &str = "<department><name>CS</name>\
        <professor id='p1'><firstName>Yannis</firstName>\
          <publication id='pub1'><title>a</title></publication>\
          <publication id='pub2'><title>b</title></publication>\
          <teaches/></professor>\
        <professor id='p2'><firstName>Victor</firstName><teaches/></professor>\
        <gradStudent id='g1'><publication id='pub3'><title>c</title></publication></gradStudent>\
        <course id='c1'><title>db</title></course></department>";

    #[test]
    fn pick_depth_one() {
        let s = check("v = SELECT P WHERE <department> P:<professor/> </>", DEPT);
        assert_eq!(s.answers, 2);
    }

    #[test]
    fn pick_root() {
        check(
            "v = SELECT D WHERE D:<department> <name>CS</name> </>",
            DEPT,
        );
        check(
            "v = SELECT D WHERE D:<department> <name>EE</name> </>",
            DEPT,
        );
    }

    #[test]
    fn text_condition_filters() {
        check(
            "v = SELECT P WHERE <department> <name>CS</name> P:<professor/> </>",
            DEPT,
        );
        check(
            "v = SELECT P WHERE <department> <name>EE</name> P:<professor/> </>",
            DEPT,
        );
    }

    #[test]
    fn filter_resolves_after_pick() {
        // the course closes after both professors: every professor is a
        // candidate first, resolved only at the course's close
        let s = check(
            "v = SELECT P WHERE <department> P:<professor/> <course/> </>",
            DEPT,
        );
        assert_eq!(s.answers, 2);
        assert!(s.peak_buffered_answers >= 2, "candidates must queue");
    }

    #[test]
    fn filter_never_resolves() {
        let s = check(
            "v = SELECT P WHERE <department> P:<professor/> <seminar/> </>",
            DEPT,
        );
        assert_eq!(s.answers, 0);
    }

    #[test]
    fn deep_pick_with_upper_filter() {
        // pick at depth 2, filter at depth 1 (same level as the chain
        // child) and a text filter inside the pick's parent
        check(
            "v = SELECT T WHERE <department> <professor> T:<publication/> <teaches/> </> </>",
            DEPT,
        );
        check(
            "v = SELECT T WHERE <department> <professor> T:<publication/> \
               <firstName>Yannis</firstName> </> </>",
            DEPT,
        );
        check(
            "v = SELECT T WHERE <department> <professor> T:<publication/> \
               <firstName>Nobody</firstName> </> </>",
            DEPT,
        );
    }

    #[test]
    fn distinct_children_hall_condition() {
        // two <publication/> conditions need two distinct publications:
        // p1 qualifies, g1 (one publication) does not
        let s = check(
            "v = SELECT P WHERE <department> \
               P:<professor | gradStudent> <publication/> <publication/> </> </>",
            DEPT,
        );
        assert_eq!(s.answers, 1);
    }

    #[test]
    fn chain_child_cannot_double_as_filter_witness() {
        // department needs a professor-with-publication (the descent)
        // AND a separate professor: p2 exists, so p1 qualifies — but in
        // a document with only p1, the same element would have to serve
        // both roles, which injectivity forbids
        let q = "v = SELECT T WHERE <department> <professor> T:<publication/> </> \
                   <professor/> </>";
        check(q, DEPT);
        let one_prof = "<department>\
            <professor id='p1'><publication id='pub1'><title>a</title></publication></professor>\
            </department>";
        let s = check(q, one_prof);
        assert_eq!(
            s.answers, 0,
            "single element cannot serve two sibling conditions"
        );
    }

    #[test]
    fn disjunctive_name_tests() {
        let s = check(
            "v = SELECT X WHERE <department> X:<professor | gradStudent> <publication/> </> </>",
            DEPT,
        );
        assert_eq!(s.answers, 2);
    }

    #[test]
    fn wildcard_pick() {
        check(
            "v = SELECT X WHERE <department> <professor> X:<*/> </> </>",
            DEPT,
        );
    }

    #[test]
    fn nested_filter_subtrees() {
        // the filter itself is a tree: a gradStudent with a publication
        // whose title is exact text
        check(
            "v = SELECT P WHERE <department> P:<professor/> \
               <gradStudent> <publication> <title>c</title> </> </> </>",
            DEPT,
        );
        check(
            "v = SELECT P WHERE <department> P:<professor/> \
               <gradStudent> <publication> <title>zzz</title> </> </> </>",
            DEPT,
        );
    }

    #[test]
    fn empty_answer_serializes_as_self_closing_root() {
        let q = parse_query("v = SELECT P WHERE <department> P:<nosuch/> </>").unwrap();
        let cq = CompiledQuery::compile(&q, None).unwrap();
        let mut buf = Vec::new();
        stream_answer_to(DEPT.as_bytes(), &cq, WriteConfig::default(), &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "<v/>");
    }

    #[test]
    fn answers_are_emitted_in_document_order() {
        let q = parse_query("v = SELECT X WHERE <department> X:<professor | gradStudent/> </>")
            .unwrap();
        let cq = CompiledQuery::compile(&q, None).unwrap();
        let mut order = Vec::new();
        stream_eval(DEPT.as_bytes(), &cq, |e| order.push(e.name.as_str())).unwrap();
        assert_eq!(order, ["professor", "professor", "gradStudent"]);
    }

    #[test]
    fn state_stays_bounded_on_wide_documents() {
        // 10k siblings; matcher state must track depth, not width
        let mut doc = String::from("<department>");
        for i in 0..10_000 {
            doc.push_str(&format!("<professor id='p{i}'><teaches/></professor>"));
        }
        doc.push_str("<course/></department>");
        let q = parse_query(
            "v = SELECT T WHERE <department> <professor> T:<teaches/> </> <course/> </>",
        )
        .unwrap();
        let cq = CompiledQuery::compile(&q, None).unwrap();
        let mut n = 0u64;
        let stats = stream_eval(doc.as_bytes(), &cq, |_| n += 1).unwrap();
        assert_eq!(n, 10_000);
        // every candidate waits for the trailing <course/>, so the queue
        // is large — but per-frame matcher state is tiny
        assert_eq!(stats.peak_buffered_answers, 10_000);
        let queued = stats.peak_buffered_answers * size_of::<Candidate>()
            + stats.peak_buffered_answer_nodes as usize * size_of::<Element>();
        // slack covers per-frame state plus one pending id per waiting
        // candidate on the ancestor's resolution list
        assert!(
            stats.peak_matcher_bytes < queued + 256 * 1024,
            "non-queue state should be small: {} vs queued {}",
            stats.peak_matcher_bytes,
            queued
        );
    }

    #[test]
    fn streaming_rejects_malformed_documents() {
        let q = parse_query("v = SELECT P WHERE <a> P:<b/> </>").unwrap();
        let cq = CompiledQuery::compile(&q, None).unwrap();
        assert!(stream_answer("<a><b></a>".as_bytes(), &cq).is_err());
        assert!(stream_answer("<a/><a/>".as_bytes(), &cq).is_err());
    }
}
