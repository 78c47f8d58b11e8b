//! Compilation of normalized XMAS queries into a streamable pattern.
//!
//! The supported fragment is the pick-element language with at most
//! [`MAX_SIBLING_CONDS`] sibling conditions per node. `!=` pairs need no
//! bindings side by side: distinct conditions always bind distinct
//! elements, so a pair holds in every match unless it names one
//! condition's element and ID variable, and then none matches
//! ([`mix_xmas::unsatisfiable_diseq`]). Compilation drops the pairs that
//! hold and compiles a pattern that admits nothing for one that never
//! does. The condition tree flattens into an array of pattern
//! nodes with parent links, a designated root-to-pick path, and per-node
//! **feasibility sets** derived from the source DTD: an element name is
//! kept only if, per the hash-consed pool's emptiness/first/alphabet
//! attributes of its interned content model (`mix_relang::pool`), a valid
//! element of that name could possibly satisfy the node's subtree. The
//! matcher skips descents into infeasible elements entirely, so the DTD
//! bounds the live state exactly as the tightening machinery of PR 5
//! bounds inference.
//!
//! Feasibility treats the DTD as a *contract*: on documents that violate
//! their advertised DTD the pruned matcher may miss matches the in-memory
//! evaluator would find. Sources in this workspace validate what they
//! serve (`XmlSource::new`), so the contract holds wherever a
//! `StreamingWrapper` is wired in.

use mix_dtd::{ContentModel, Dtd};
use mix_relang::pool;
use mix_relang::symbol::Name;
use mix_xmas::ast::{Body, Condition, NameTest, Query};
use mix_xmas::unsatisfiable_diseq;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Sibling-condition width cap: per-element matcher state is a bitset
/// over subsets of one node's child conditions (`reach` has one bit per
/// subset), kept machine-word sized. Realistic pick-element queries have
/// 2–4 sibling conditions; a wider query is answered by the in-memory
/// evaluator, which matches a group of any width in polynomial time.
pub const MAX_SIBLING_CONDS: usize = 6;

/// Why a query is outside the streamable fragment (the
/// `StreamingWrapper` falls back to the in-memory evaluator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// A condition node has more than [`MAX_SIBLING_CONDS`] children.
    WideSiblings(usize),
    /// The pick variable is not bound in the condition tree (normalized
    /// queries never hit this).
    PickUnbound,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsupported::WideSiblings(n) => write!(
                f,
                "a condition has {n} sibling conditions (streaming cap {MAX_SIBLING_CONDS})"
            ),
            Unsupported::PickUnbound => write!(f, "the pick variable is not bound"),
        }
    }
}

impl std::error::Error for Unsupported {}

/// A bitmask over one pattern node's child conditions (≤
/// [`MAX_SIBLING_CONDS`] bits).
pub(crate) type Mask = u8;

#[derive(Debug)]
pub(crate) enum PKind {
    /// The element's content must be exactly this string.
    Text(String),
    /// Each listed child node must be satisfied by a distinct child.
    Children(Vec<u16>),
}

#[derive(Debug)]
pub(crate) struct PNode {
    pub(crate) test: NameTest,
    pub(crate) kind: PKind,
    /// Parent node and this node's bit position among its children.
    pub(crate) parent: Option<(u16, u8)>,
    /// Element names that could satisfy this subtree in a DTD-valid
    /// document; `None` disables pruning (wildcard test or no DTD).
    pub(crate) feasible: Option<HashSet<Name>>,
}

impl PNode {
    pub(crate) fn full_mask(&self) -> Mask {
        match &self.kind {
            PKind::Text(_) => 0,
            PKind::Children(kids) => ((1u16 << kids.len()) - 1) as Mask,
        }
    }
}

/// A query compiled for one-pass evaluation: flattened pattern nodes, the
/// root-to-pick path, and DTD feasibility sets.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The answer document's root name.
    pub view_name: Name,
    pub(crate) nodes: Vec<PNode>,
    /// Node index per depth, root (0) to pick node.
    pub(crate) pick_path: Vec<u16>,
    /// Per pick-path *ancestor* depth `d < pick_depth`: the mask of that
    /// node's children that are **filters** — everything except the
    /// on-path child.
    pub(crate) filters: Vec<Mask>,
}

impl CompiledQuery {
    /// Compiles a (normalized) query, with `dtd` enabling feasibility
    /// pruning. Its `!=` pairs are decided here: the ones that always hold
    /// are dropped, and one that never holds leaves a pattern whose root
    /// admits no element ([`CompiledQuery::admits_nothing`]). Queries with
    /// unbound picks or over-wide sibling lists are rejected as
    /// [`Unsupported`].
    pub fn compile(q: &Query, dtd: Option<&Dtd>) -> Result<CompiledQuery, Unsupported> {
        let path = q.pick_path().ok_or(Unsupported::PickUnbound)?;
        let path_ptrs: Vec<*const Condition> = path.iter().map(|c| *c as *const _).collect();

        let mut nodes: Vec<PNode> = Vec::new();
        let mut by_ptr: HashMap<*const Condition, u16> = HashMap::new();
        build(&q.root, None, &mut nodes, &mut by_ptr)?;

        let pick_path: Vec<u16> = path_ptrs.iter().map(|p| by_ptr[p]).collect();
        let pick_depth = pick_path.len() - 1;
        let mut filters = Vec::with_capacity(pick_depth);
        for d in 0..pick_depth {
            let (_, bit) = nodes[pick_path[d + 1] as usize]
                .parent
                .expect("path nodes below the root have parents");
            filters.push(nodes[pick_path[d] as usize].full_mask() & !(1 << bit));
        }

        if let Some(dtd) = dtd {
            compute_feasibility(&mut nodes, dtd);
        }
        if unsatisfiable_diseq(q).is_some() {
            nodes[0].feasible = Some(HashSet::new());
        }

        Ok(CompiledQuery {
            view_name: q.view_name,
            nodes,
            pick_path,
            filters,
        })
    }

    /// Depth of the pick node (0 = the root is picked).
    pub fn pick_depth(&self) -> usize {
        self.pick_path.len() - 1
    }

    /// Number of pattern nodes.
    pub fn pattern_size(&self) -> usize {
        self.nodes.len()
    }

    /// Does the root node admit no element name, so the answer is empty
    /// whatever the document? True when a `!=` pair never holds, and when
    /// the DTD leaves no feasible name for the root.
    pub fn admits_nothing(&self) -> bool {
        self.nodes[0]
            .feasible
            .as_ref()
            .is_some_and(HashSet::is_empty)
    }

    pub(crate) fn pick_node(&self) -> u16 {
        *self.pick_path.last().expect("path nonempty")
    }

    /// Could an element named `name` possibly satisfy `node`? (Name test
    /// plus the DTD feasibility set, when pruning is on.)
    pub(crate) fn admits(&self, node: u16, name: Name) -> bool {
        let n = &self.nodes[node as usize];
        match &n.feasible {
            Some(set) => set.contains(&name),
            None => n.test.matches(name),
        }
    }
}

fn build(
    c: &Condition,
    parent: Option<(u16, u8)>,
    nodes: &mut Vec<PNode>,
    by_ptr: &mut HashMap<*const Condition, u16>,
) -> Result<u16, Unsupported> {
    let idx = nodes.len() as u16;
    by_ptr.insert(c as *const _, idx);
    let kind = match &c.body {
        Body::Text(s) => PKind::Text(s.clone()),
        Body::Children(kids) => {
            if kids.len() > MAX_SIBLING_CONDS {
                return Err(Unsupported::WideSiblings(kids.len()));
            }
            PKind::Children(Vec::with_capacity(kids.len()))
        }
    };
    nodes.push(PNode {
        test: c.test.clone(),
        kind,
        parent,
        feasible: None,
    });
    let mut kid_ids = Vec::new();
    for (bit, kid) in c.children().iter().enumerate() {
        kid_ids.push(build(kid, Some((idx, bit as u8)), nodes, by_ptr)?);
    }
    if let PKind::Children(slot) = &mut nodes[idx as usize].kind {
        *slot = kid_ids;
    }
    Ok(idx)
}

/// Fills per-node feasibility sets bottom-up (children have larger
/// indices than their parents, so a reverse scan sees children first).
///
/// A name `n` is kept for node `p` when the name test matches and `n`'s
/// content model could produce a satisfying element:
/// * text requirement → `n` must be PCDATA;
/// * child requirements → `n` must have element content whose interned
///   model has a non-empty language with a non-empty live first set, and
///   every child condition must be satisfiable by some name in the
///   model's live alphabet (recursively feasible);
/// * names with an empty-language model can never appear in a valid
///   document at all.
///
/// Undefined names stay permissive: the DTD offers no evidence either
/// way, so no pruning.
fn compute_feasibility(nodes: &mut [PNode], dtd: &Dtd) {
    for i in (0..nodes.len()).rev() {
        let NameTest::Names(candidates) = nodes[i].test.clone() else {
            continue; // wildcard: normalize() expands these; stay permissive
        };
        let mut set = HashSet::new();
        for n in candidates {
            if name_feasible(nodes, i, n, dtd) {
                set.insert(n);
            }
        }
        nodes[i].feasible = Some(set);
    }
}

fn name_feasible(nodes: &[PNode], i: usize, n: Name, dtd: &Dtd) -> bool {
    let Some(model) = dtd.get(n) else {
        return true; // undefined in the DTD: no evidence, no pruning
    };
    match (model, &nodes[i].kind) {
        (ContentModel::Pcdata, PKind::Text(_)) => true,
        (ContentModel::Pcdata, PKind::Children(kids)) => kids.is_empty(),
        (ContentModel::Elements(_), PKind::Text(_)) => false,
        (ContentModel::Elements(r), PKind::Children(kids)) => {
            let id = pool::intern(r);
            if pool::empty_lang(id) {
                return false; // no valid content word exists at all
            }
            if kids.is_empty() {
                return true;
            }
            if pool::live_first(id).is_empty() {
                return false; // only the empty word: no children possible
            }
            let alpha = pool::live_alphabet(id);
            kids.iter().all(|&kid| {
                alpha.iter().any(|sym| match &nodes[kid as usize].feasible {
                    Some(set) => set.contains(&sym.name),
                    None => nodes[kid as usize].test.matches(sym.name),
                })
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_relang::symbol::name;
    use mix_xmas::{normalize, parse_query};

    fn compiled(src: &str, dtd: Option<&Dtd>) -> Result<CompiledQuery, Unsupported> {
        let q = parse_query(src).unwrap();
        let q = match dtd {
            Some(d) => normalize(&q, d).unwrap(),
            None => q,
        };
        CompiledQuery::compile(&q, dtd)
    }

    #[test]
    fn pairs_are_decided_at_compile_time() {
        // a pair on two conditions always holds and is dropped
        let cq = compiled(
            "v = SELECT P WHERE <department> P:<professor> \
               <publication id=A/> <publication id=B/> </> </> AND A != B",
            None,
        )
        .unwrap();
        assert!(!cq.admits_nothing());
        assert!(cq.admits(0, name("department")));
        // a pair on one condition's two variables never holds
        let cq = compiled(
            "v = SELECT P WHERE <department> P:<professor id=A/> </> AND P != A",
            None,
        )
        .unwrap();
        assert!(cq.admits_nothing());
        assert!(!cq.admits(0, name("department")));
    }

    #[test]
    fn pick_path_and_filters() {
        let cq = compiled(
            "v = SELECT P WHERE <department> <name>CS</name> \
               <professor> P:<publication/> <teaches/> </> </>",
            None,
        )
        .unwrap();
        assert_eq!(cq.pick_depth(), 2);
        assert_eq!(cq.pattern_size(), 5);
        // department's filters: the <name> condition (bit 0), not the
        // on-path <professor> (bit 1)
        assert_eq!(cq.filters[0], 0b01);
        // professor's filters: <teaches> (bit 1), not the picked
        // <publication> (bit 0)
        assert_eq!(cq.filters[1], 0b10);
    }

    #[test]
    fn dtd_pruning_drops_impossible_names() {
        // <teaches> is EMPTY in D1, so a teaches element can never hold a
        // publication child; with the DTD the professor|gradStudent
        // disjunction under a text requirement also collapses.
        let d = d1_department();
        let cq = compiled(
            "v = SELECT P WHERE <department> \
               <professor | teaches> <publication/> </> P:<course/> </>",
            Some(&d),
        )
        .unwrap();
        let prof_node = cq
            .nodes
            .iter()
            .position(|n| n.test.matches(name("teaches")))
            .unwrap();
        let feasible = cq.nodes[prof_node].feasible.as_ref().unwrap();
        assert!(feasible.contains(&name("professor")));
        assert!(!feasible.contains(&name("teaches")));
    }

    #[test]
    fn text_requirement_needs_pcdata() {
        let d = d1_department();
        // publication has element content; requiring text of it is
        // infeasible, and the infeasibility propagates to the parent
        let cq = compiled(
            "v = SELECT P WHERE P:<department> <publication>abc</publication> </>",
            Some(&d),
        )
        .unwrap();
        let root_feasible = cq.nodes[0].feasible.as_ref().unwrap();
        assert!(root_feasible.is_empty(), "pattern should be infeasible");
        // ...but a name (PCDATA) text requirement is fine
        let cq = compiled(
            "v = SELECT P WHERE P:<department> <name>CS</name> </>",
            Some(&d),
        )
        .unwrap();
        assert!(cq.nodes[0]
            .feasible
            .as_ref()
            .unwrap()
            .contains(&name("department")));
    }

    #[test]
    fn without_dtd_everything_is_permissive() {
        let cq = compiled(
            "v = SELECT P WHERE P:<department> <teaches><x/></teaches> </>",
            None,
        )
        .unwrap();
        assert!(cq.nodes.iter().all(|n| n.feasible.is_none()));
        assert!(cq.admits(0, name("department")));
        assert!(!cq.admits(0, name("professor")));
    }
}
