//! View DTD inference for *union views* over several sources.
//!
//! The paper's introduction motivates mediators with "a view that unions
//! the structures exported by 100 sites, without having any information
//! about the contents and the structure of the data" — and then argues
//! that with DTDs the mediator can do better. This module is that
//! argument, executed: a union view concatenates the members of one
//! pick-element query per source (in source order), and its view DTD is
//! inferred from the per-source inferences:
//!
//! * the root type is the *concatenation* of the per-source list types;
//! * per-source specialized types are moved into disjoint tag spaces,
//!   then equivalent specializations are collapsed back (two sites with
//!   identical schemas contribute one set of definitions, two sites with
//!   *different* definitions for the same name keep distinct
//!   specializations — exactly what s-DTDs are for);
//! * merging to a plain DTD unions per-name definitions and signals the
//!   loss, as in Section 4.3.

use crate::cache::InferenceCache;
use crate::merge::{merge, Merged};
use crate::pipeline::{collapse_equivalent, infer_view_dtd, InferredView};
use crate::tighten::Verdict;
use mix_dtd::{ContentModel, Dtd, SDtd};
use mix_relang::ast::Regex;
use mix_relang::map_syms_cached;
use mix_relang::symbol::{Name, Sym};
use mix_xmas::{NormalizeError, Query};
use std::collections::HashMap;
use std::sync::Arc;

/// The inference result for a union view.
#[derive(Debug, Clone)]
pub struct InferredUnionView {
    /// The per-source inferences, in union order: each member's
    /// normalized query, and the DTDs its answers must satisfy.
    pub members: Vec<Arc<InferredView>>,
    /// The tight specialized view DTD of the union.
    pub sdtd: SDtd,
    /// The merged plain view DTD.
    pub dtd: Dtd,
    /// Names whose definitions were merged (within or across sources).
    pub merged_names: Vec<Name>,
    /// Names that some sites use with PCDATA content and others with
    /// element content. The specialized DTD handles this (a name may have
    /// specializations of both kinds, Definition 3.10), but **no plain
    /// DTD in the paper's model can** — `dtd` is a best-effort
    /// over-approximation of the element side only and is *not sound* for
    /// these names. Consumers (e.g. the mediator's simplifier) must not
    /// reason with `dtd` when this is non-empty.
    pub kind_conflicts: Vec<Name>,
    /// The weakest per-part verdict (`Unsatisfiable` only if *every* part
    /// is; a single satisfiable part makes the union satisfiable).
    pub verdict: Verdict,
}

/// Infers the view DTD of a union view: one `(query, source DTD)` pair
/// per source, members concatenated in this order.
pub fn infer_union_view_dtd(
    view_name: Name,
    parts: &[(&Query, &Dtd)],
) -> Result<InferredUnionView, NormalizeError> {
    infer_union_view_dtd_with(view_name, parts, &mut |q, d| {
        infer_view_dtd(q, d).map(Arc::new)
    })
}

/// [`infer_union_view_dtd`] with the per-part pipeline routed through a
/// shared [`InferenceCache`]: re-registering a union over sources whose
/// member inferences are already cached skips every per-part pipeline run.
pub fn infer_union_view_dtd_cached(
    view_name: Name,
    parts: &[(&Query, &Dtd)],
    cache: &InferenceCache,
) -> Result<InferredUnionView, NormalizeError> {
    infer_union_view_dtd_with(view_name, parts, &mut |q, d| cache.infer(q, d))
}

/// The per-part inference hook: the plain pipeline or a shared cache.
type PartInfer<'a> = dyn FnMut(&Query, &Dtd) -> Result<Arc<InferredView>, NormalizeError> + 'a;

fn infer_union_view_dtd_with(
    view_name: Name,
    parts: &[(&Query, &Dtd)],
    infer: &mut PartInfer<'_>,
) -> Result<InferredUnionView, NormalizeError> {
    let mut members = Vec::new();
    let mut root_parts: Vec<Regex> = Vec::new();
    let mut combined = SDtd::new(view_name.untagged());
    combined
        .types
        .insert(view_name.untagged(), ContentModel::Elements(Regex::Epsilon));
    let mut verdict = Verdict::Unsatisfiable;
    // A disjoint tag space per part: tags are u32; parts are few and the
    // per-part tags small (collapse renumbers densely), so a fixed stride
    // is ample.
    const STRIDE: u32 = 1 << 16;
    for (i, (q, source)) in parts.iter().enumerate() {
        let iv = infer(q, source)?;
        verdict = verdict.max(iv.verdict);
        let offset = STRIDE * (i as u32 + 1);
        // move every sym of this part into its own tag space (untagged
        // included: definitions of the same name from different sources
        // must not collide)
        let retag = |s: Sym| s.name.tagged(offset + s.tag);
        root_parts.push(map_syms_cached(&iv.list_type, &mut |s| retag(s)));
        for (s, m) in iv.sdtd.types.iter() {
            if s == iv.sdtd.doc_type {
                continue; // the per-part root is replaced by the union root
            }
            let moved = match m {
                ContentModel::Pcdata => ContentModel::Pcdata,
                ContentModel::Elements(r) => {
                    ContentModel::Elements(map_syms_cached(r, &mut |x| retag(x)))
                }
            };
            combined.types.insert(retag(s), moved);
        }
        members.push(iv);
    }
    let root_type = Regex::concat(root_parts);
    combined
        .types
        .insert(view_name.untagged(), ContentModel::Elements(root_type));
    // collapse equivalent specializations across parts (identical-schema
    // sites fold together) and renumber densely
    let sdtd = collapse_equivalent(combined);
    // detect names used with PCDATA content by one site and element
    // content by another — inexpressible as one plain type
    let mut kinds: HashMap<Name, (bool, bool)> = HashMap::new();
    for (sym, m) in sdtd.types.iter() {
        let e = kinds.entry(sym.name).or_insert((false, false));
        match m {
            ContentModel::Pcdata => e.0 = true,
            ContentModel::Elements(_) => e.1 = true,
        }
    }
    let mut kind_conflicts: Vec<Name> = kinds
        .into_iter()
        .filter(|(_, (p, e))| *p && *e)
        .map(|(n, _)| n)
        .collect();
    // HashMap iteration order is arbitrary; sort so the warning list is
    // stable across runs and processes
    kind_conflicts.sort_by_key(|n| n.as_str());
    let Merged { dtd, merged_names } = merge(&sdtd);
    Ok(InferredUnionView {
        members,
        sdtd,
        dtd,
        merged_names,
        kind_conflicts,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_dtd::parse_compact;
    use mix_relang::symbol::name;
    use mix_relang::{equivalent, parse_regex};
    use mix_xmas::paper::q3_publist;

    #[test]
    fn identical_sites_fold_together() {
        let d = d1_department();
        let q = q3_publist();
        let parts = vec![(&q, &d), (&q, &d), (&q, &d)];
        let u = infer_union_view_dtd(name("allPubs"), &parts).unwrap();
        // root: publication* three times — per-site order preserved
        let root = u.dtd.get(name("allPubs")).unwrap().regex().unwrap();
        assert!(
            equivalent(root, &parse_regex("publication*").unwrap()),
            "got {root}"
        );
        // the three identical publication definitions collapsed into one
        assert_eq!(u.sdtd.specializations(name("publication")).len(), 1);
        let p = u.dtd.get(name("publication")).unwrap().regex().unwrap();
        assert!(equivalent(
            p,
            &parse_regex("title, author+, journal").unwrap()
        ));
        assert!(u.dtd.undefined_names().is_empty());
    }

    #[test]
    fn heterogeneous_sites_keep_specializations() {
        // two "paper list" sites with different publication schemas
        let d_a = parse_compact(
            "{<site : publication*> <publication : title, year> \
              <title : PCDATA> <year : PCDATA>}",
        )
        .unwrap();
        let d_b = parse_compact(
            "{<site : publication*> <publication : title, venue, doi?> \
              <title : PCDATA> <venue : PCDATA> <doi : PCDATA>}",
        )
        .unwrap();
        let q =
            mix_xmas::parse_query("pubs = SELECT P WHERE <site> P:<publication/> </site>").unwrap();
        let u = infer_union_view_dtd(name("catalog"), &[(&q, &d_a), (&q, &d_b)]).unwrap();
        assert!(u.kind_conflicts.is_empty());
        // the s-DTD keeps the two publication shapes apart …
        assert_eq!(u.sdtd.specializations(name("publication")).len(), 2);
        // … and the union root lists site-A publications before site-B's
        let root = u
            .sdtd
            .get(name("catalog").untagged())
            .unwrap()
            .regex()
            .unwrap();
        let first_syms = root.syms_in_order();
        assert_eq!(first_syms.len(), 2);
        // the merged plain DTD had to union them and says so
        assert!(u.merged_names.contains(&name("publication")));
        let p = u.dtd.get(name("publication")).unwrap().regex().unwrap();
        assert!(equivalent(
            p,
            &parse_regex("(title, year) | (title, venue, doi?)").unwrap()
        ));
    }

    #[test]
    fn union_verdict_is_the_strongest_part() {
        let d = d1_department();
        let sat = q3_publist();
        let unsat =
            mix_xmas::parse_query("v = SELECT J WHERE <department> J:<journal/> </>").unwrap();
        let u = infer_union_view_dtd(name("u"), &[(&unsat, &d), (&sat, &d)]).unwrap();
        assert_eq!(u.verdict, Verdict::Satisfiable);
        let u = infer_union_view_dtd(name("u"), &[(&unsat, &d)]).unwrap();
        assert_eq!(u.verdict, Verdict::Unsatisfiable);
        // an unsatisfiable part contributes ε to the root type
        let root = u.dtd.get(name("u")).unwrap().regex().unwrap();
        assert_eq!(root, &Regex::Epsilon);
    }

    #[test]
    fn empty_union_is_empty() {
        let u = infer_union_view_dtd(name("nothing"), &[]).unwrap();
        let root = u.dtd.get(name("nothing")).unwrap().regex().unwrap();
        assert_eq!(root, &Regex::Epsilon);
        assert_eq!(u.verdict, Verdict::Unsatisfiable);
    }
}

#[cfg(test)]
mod kind_conflict_tests {
    use super::*;
    use mix_dtd::parse_compact;
    use mix_dtd::sdtd::sdtd_satisfies;
    use mix_relang::symbol::name;
    use mix_xml::parse_document;

    #[test]
    fn mixed_kind_unions_are_flagged_and_sdtd_stays_sound() {
        // site A: <item>text</item>; site B: <item><part/></item>
        let d_a = parse_compact("{<site : item*> <item : PCDATA>}").unwrap();
        let d_b = parse_compact("{<site : item*> <item : part?> <part : EMPTY>}").unwrap();
        let q = mix_xmas::parse_query("items = SELECT P WHERE <site> P:<item/> </site>").unwrap();
        let u = infer_union_view_dtd(name("all"), &[(&q, &d_a), (&q, &d_b)]).unwrap();
        assert_eq!(u.kind_conflicts, vec![name("item")]);
        // the specialized DTD accepts a union document with both shapes …
        let doc = parse_document("<all><item>text</item><item><part/></item></all>").unwrap();
        assert!(sdtd_satisfies(&u.sdtd, &doc));
        // … and still rejects shape-swapped members
        let swapped = parse_document("<all><item><part/></item><item>text</item></all>").unwrap();
        assert!(!sdtd_satisfies(&u.sdtd, &swapped));
    }
}
