//! The end-to-end View DTD Inference module of the MIX mediator: query +
//! source DTD → tight specialized view DTD → merged plain view DTD.

use crate::inferlist::infer_list;
use crate::merge::{merge, Merged};
use crate::tighten::{tighten, Verdict};
use mix_dtd::{ContentModel, Dtd, SDtd};
use mix_relang::ast::Regex;
use mix_relang::symbol::{Name, Sym};
use mix_relang::{equivalent_id, intern, map_syms_cached, simplify};
use mix_xmas::{normalize, NormalizeError, Query};
use std::collections::HashMap;

/// Everything the inference pipeline produces for one view definition.
#[derive(Debug, Clone)]
pub struct InferredView {
    /// The normalized (tagged, wildcard-expanded) query.
    pub query: Query,
    /// The tight specialized view DTD (Section 3.3).
    pub sdtd: SDtd,
    /// The merged plain view DTD (Section 4.3), types simplified.
    pub dtd: Dtd,
    /// Names whose specializations were merged away — each one is a
    /// user-visible loss of tightness.
    pub merged_names: Vec<Name>,
    /// The query's classification against the source DTD (the Figure 2
    /// side effect). `Unsatisfiable` means the view DTD describes an empty
    /// view.
    pub verdict: Verdict,
    /// The inferred content type of the view's top element (over tagged
    /// pick names).
    pub list_type: Regex,
}

/// Runs the full inference pipeline (normalize → tighten → infer-list →
/// assemble s-DTD → collapse equivalent specializations → merge).
///
/// ```
/// use mix_infer::infer_view_dtd;
/// let source = mix_dtd::paper::d1_department();
/// let q = mix_xmas::parse_query(
///     "publist = SELECT P WHERE <department> <name>CS</name> \
///        <professor | gradStudent> P:<publication><journal/></publication> </> </>",
/// ).unwrap();
/// let view = infer_view_dtd(&q, &source).unwrap();
/// // Example 3.2: the (journal | conference) disjunction is removed
/// let publication = view.dtd.get(mix_relang::name("publication")).unwrap();
/// assert_eq!(publication.to_string(), "title, author+, journal");
/// ```
pub fn infer_view_dtd(q: &Query, source: &Dtd) -> Result<InferredView, NormalizeError> {
    let q = normalize(q, source)?;
    let tightened = tighten(&q, source);
    let list_type = if tightened.verdict == Verdict::Unsatisfiable {
        Regex::Epsilon
    } else {
        infer_list(&q, source, &tightened)
    };
    // Assemble: view root + every type reachable from it.
    let mut sdtd = SDtd::new(q.view_name.untagged());
    sdtd.types.insert(
        q.view_name.untagged(),
        ContentModel::Elements(list_type.clone()),
    );
    let mut frontier: std::collections::VecDeque<Sym> =
        list_type.syms_in_order().into_iter().collect();
    while let Some(s) = frontier.pop_front() {
        if sdtd.types.contains(s) {
            continue;
        }
        let model = if s.tag != 0 {
            tightened.types.get(s).cloned()
        } else {
            source.get(s.name).cloned()
        };
        let Some(model) = model else {
            // A tagged sym with no stored refinement can only arise from a
            // condition that later proved unsatisfiable; fall back to the
            // source type to stay sound.
            if let Some(m) = source.get(s.name) {
                sdtd.types.insert(s, m.clone());
                if let ContentModel::Elements(r) = source.get(s.name).expect("just read") {
                    frontier.extend(r.syms_in_order());
                }
            }
            continue;
        };
        if let ContentModel::Elements(r) = &model {
            frontier.extend(r.syms_in_order());
        }
        sdtd.types.insert(s, model);
    }
    let sdtd = collapse_equivalent(sdtd);
    // the collapse/renumber passes rewrote the tags; re-read the final
    // list type from the assembled s-DTD so the two never diverge
    let list_type = sdtd
        .get(q.view_name.untagged())
        .and_then(ContentModel::regex)
        .cloned()
        .unwrap_or(Regex::Epsilon);
    let Merged { dtd, merged_names } = merge(&sdtd);
    Ok(InferredView {
        query: q,
        sdtd,
        dtd,
        merged_names,
        verdict: tightened.verdict,
        list_type,
    })
}

/// Collapses specializations with language-equivalent definitions (the
/// paper keeps `publication²` but notes in footnote 8 that it "has
/// essentially the same type with `publication¹`"), collapses a
/// specialization equal to the base type into the untagged name, and
/// renumbers the surviving tags densely per name.
pub(crate) fn collapse_equivalent(sdtd: SDtd) -> SDtd {
    let mut current = sdtd;
    // Iterate: collapsing one pair may make others equivalent.
    for _ in 0..8 {
        let mut rename: HashMap<Sym, Sym> = HashMap::new();
        let keys: Vec<Sym> = current.types.keys().collect();
        for (i, &a) in keys.iter().enumerate() {
            if rename.contains_key(&a) {
                continue;
            }
            for &b in &keys[i + 1..] {
                if a.name != b.name || rename.contains_key(&b) {
                    continue;
                }
                let equal = match (current.types.get(a), current.types.get(b)) {
                    (Some(ContentModel::Pcdata), Some(ContentModel::Pcdata)) => true,
                    (Some(ContentModel::Elements(ra)), Some(ContentModel::Elements(rb))) => {
                        // id equality is equivalent_id's structural fast path
                        equivalent_id(intern(ra), intern(rb))
                    }
                    _ => false,
                };
                if equal {
                    // keep the lower tag (untagged wins)
                    let (keep, drop) = if a.tag <= b.tag { (a, b) } else { (b, a) };
                    rename.insert(drop, keep);
                }
            }
        }
        if rename.is_empty() {
            break;
        }
        current = apply_rename(&current, &rename);
    }
    renumber(current)
}

fn apply_rename(sdtd: &SDtd, rename: &HashMap<Sym, Sym>) -> SDtd {
    let map = |s: Sym| *rename.get(&s).unwrap_or(&s);
    let mut out = SDtd::new(map(sdtd.doc_type));
    for (s, m) in sdtd.types.iter() {
        let key = map(s);
        if out.types.contains(key) {
            continue; // dropped duplicate
        }
        let model = match m {
            ContentModel::Pcdata => ContentModel::Pcdata,
            ContentModel::Elements(r) => {
                ContentModel::Elements(simplify(&map_syms_cached(r, &mut |x| map(x))))
            }
        };
        out.types.insert(key, model);
    }
    out
}

/// Renumbers surviving tags densely, and *untags* the specialization of
/// any name that has exactly one — matching the paper's presentation of
/// (D4), where `professor` carries its refined type plainly and only
/// `publication` (which needs both the original and the journal-only
/// type) keeps a tag. Renaming specializations never changes the set of
/// accepted documents: tags are just names.
fn renumber(sdtd: SDtd) -> SDtd {
    let mut per_name: HashMap<Name, Vec<Sym>> = HashMap::new();
    for s in sdtd.types.keys() {
        per_name.entry(s.name).or_default().push(s);
    }
    let mut rename: HashMap<Sym, Sym> = HashMap::new();
    for (n, specs) in per_name {
        match specs.as_slice() {
            [only] if only.tag != 0 => {
                rename.insert(*only, n.untagged());
            }
            _ => {
                let mut counter = 0u32;
                for s in specs {
                    if s.tag == 0 {
                        continue;
                    }
                    counter += 1;
                    if s.tag != counter {
                        rename.insert(s, n.tagged(counter));
                    }
                }
            }
        }
    }
    if rename.is_empty() {
        sdtd
    } else {
        apply_rename(&sdtd, &rename)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_relang::symbol::name;
    use mix_relang::{equivalent, parse_regex};
    use mix_xmas::parse_query;

    fn q2_src() -> Query {
        parse_query(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> \
                 <publication id=Pub1><journal/></publication> \
                 <publication id=Pub2><journal/></publication> \
               </> </> AND Pub1 != Pub2",
        )
        .unwrap()
    }

    #[test]
    fn example_3_4_specialized_dtd() {
        let d = d1_department();
        let iv = infer_view_dtd(&q2_src(), &d).unwrap();
        assert_eq!(iv.verdict, Verdict::Satisfiable);
        // root: professor*, gradStudent* (over some tags)
        assert!(equivalent(
            &iv.list_type.image(),
            &parse_regex("professor*, gradStudent*").unwrap()
        ));
        // publication keeps both the original type (untagged) and exactly
        // one journal-only specialization — the paper's publication¹
        let pub_specs = iv.sdtd.specializations(name("publication"));
        assert_eq!(pub_specs.len(), 2, "specializations: {pub_specs:?}");
        let tagged = pub_specs
            .iter()
            .copied()
            .find(|s| !s.is_untagged())
            .expect("journal-only specialization");
        assert_eq!(tagged, name("publication").tagged(1));
        let t = iv.sdtd.get(tagged).unwrap().regex().unwrap();
        assert!(equivalent(
            &t.image(),
            &parse_regex("title, author+, journal").unwrap()
        ));
        // professor (sole spec, hence untagged as in D4) requires the two
        // tagged publications around stars
        let prof = name("professor").untagged();
        let pr = iv.sdtd.get(prof).unwrap().regex().unwrap();
        assert!(equivalent(
            &pr.image(),
            &parse_regex("firstName, lastName, publication, publication, publication*, teaches")
                .unwrap()
        ));
    }

    #[test]
    fn example_3_1_merged_dtd_is_d2() {
        let d = d1_department();
        let iv = infer_view_dtd(&q2_src(), &d).unwrap();
        // (D2), reconstructed: root professor*, gradStudent*; professor and
        // gradStudent require at least two publications; publication keeps
        // the (journal | conference) disjunction (that information is lost
        // by merging — and the merge is signalled).
        assert!(iv.merged_names.contains(&name("publication")));
        let root = iv.dtd.get(name("withJournals")).unwrap().regex().unwrap();
        assert!(equivalent(
            root,
            &parse_regex("professor*, gradStudent*").unwrap()
        ));
        let prof = iv.dtd.get(name("professor")).unwrap().regex().unwrap();
        assert!(equivalent(
            prof,
            &parse_regex("firstName, lastName, publication, publication, publication*, teaches")
                .unwrap()
        ));
        let publ = iv.dtd.get(name("publication")).unwrap().regex().unwrap();
        assert!(equivalent(
            publ,
            &parse_regex("title, author+, (journal | conference)").unwrap()
        ));
        assert!(iv.dtd.undefined_names().is_empty());
    }

    #[test]
    fn example_3_2_disjunction_removal() {
        // (Q3): all journal publications of CS people → (D3).
        let d = d1_department();
        let q = parse_query(
            "publist = SELECT P WHERE <department> <name>CS</name> \
               <professor | gradStudent> P:<publication><journal/></publication> </> </>",
        )
        .unwrap();
        let iv = infer_view_dtd(&q, &d).unwrap();
        let root = iv.dtd.get(name("publist")).unwrap().regex().unwrap();
        assert!(equivalent(root, &parse_regex("publication*").unwrap()));
        let publ = iv.dtd.get(name("publication")).unwrap().regex().unwrap();
        assert!(
            equivalent(publ, &parse_regex("title, author+, journal").unwrap()),
            "disjunction not removed: {publ}"
        );
        // no merging needed here: the view DTD is structurally tight
        assert!(iv.merged_names.is_empty());
        assert!(!iv.dtd.types.contains(name("conference")));
    }

    #[test]
    fn unsatisfiable_view_dtd_describes_empty_answer() {
        let d = d1_department();
        let q = parse_query("v = SELECT J WHERE <department> J:<journal/> </>").unwrap();
        let iv = infer_view_dtd(&q, &d).unwrap();
        assert_eq!(iv.verdict, Verdict::Unsatisfiable);
        let root = iv.dtd.get(name("v")).unwrap().regex().unwrap();
        assert_eq!(root, &Regex::Epsilon);
        assert_eq!(iv.dtd.types.len(), 1);
    }

    #[test]
    fn inferred_sdtd_has_no_dangling_references() {
        let d = d1_department();
        let iv = infer_view_dtd(&q2_src(), &d).unwrap();
        for (_, m) in iv.sdtd.types.iter() {
            if let ContentModel::Elements(r) = m {
                for s in r.syms() {
                    assert!(iv.sdtd.types.contains(s), "dangling {s}");
                }
            }
        }
    }

    #[test]
    fn tags_are_dense_after_renumbering() {
        let d = d1_department();
        let iv = infer_view_dtd(&q2_src(), &d).unwrap();
        for n in [name("professor"), name("gradStudent"), name("publication")] {
            let mut tags: Vec<u32> = iv
                .sdtd
                .specializations(n)
                .iter()
                .map(|s| s.tag)
                .filter(|&t| t != 0)
                .collect();
            tags.sort();
            for (i, t) in tags.iter().enumerate() {
                assert_eq!(*t as usize, i + 1, "tags of {n} not dense: {tags:?}");
            }
        }
    }
}
