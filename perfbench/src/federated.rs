//! federated-query — the read path. Four daemons serve different DTDs
//! (D1, D9, D11 and one seeded generated DTD) over small documents; each
//! source has its own views, and two union views span the sources. The
//! client mix has three kinds: composed single-view selections drawn with
//! skew from hundreds of distinct texts, union-view queries that
//! materialize, and queries the DTDs prove empty for all members
//! (`tighten` at the view) or for some (`Unsat` union members, skipped by
//! sat pruning before any fetch).

use crate::serving::{Inputs, SourceInput};
use mix_dtd::generate::{seeded_dtd, write_sized_document, ChunkedDocConfig, DtdGenConfig};
use mix_dtd::{ContentModel, Dtd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Professors (and so distinct first names and titles) per department
/// document: three templates over them give several hundred distinct
/// composed texts, more than the 128 entries of the reply-parse memo.
const PROFESSORS: usize = 160;

/// A D1- (or, with `d11`, D11-) valid department document whose
/// professors are named `{prefix}p0 …`, with publication titles
/// `{prefix}t{k}_{j}` and authors drawn from `a0 … a19`.
pub fn department(rng: &mut StdRng, prefix: &str, professors: usize, d11: bool) -> String {
    let mut s = String::from("<department><name>CS</name>");
    let publication = |rng: &mut StdRng, title: String, s: &mut String| {
        s.push_str(&format!("<publication><title>{title}</title>"));
        let authors = if d11 {
            rng.gen_range(0..3)
        } else {
            rng.gen_range(1..3)
        };
        for _ in 0..authors {
            s.push_str(&format!("<author>a{}</author>", rng.gen_range(0..20)));
        }
        s.push_str(if rng.gen_bool(0.6) {
            "<journal/></publication>"
        } else {
            "<conference/></publication>"
        });
    };
    for k in 0..professors {
        s.push_str(&format!(
            "<professor><firstName>{prefix}p{k}</firstName><lastName>l{}</lastName>",
            rng.gen_range(0..8)
        ));
        for j in 0..rng.gen_range(1..4) {
            publication(rng, format!("{prefix}t{k}_{j}"), &mut s);
        }
        s.push_str("<teaches/></professor>");
    }
    for k in 0..professors / 4 {
        s.push_str(&format!(
            "<gradStudent><firstName>{prefix}g{k}</firstName><lastName>l{}</lastName>",
            rng.gen_range(0..8)
        ));
        let min = usize::from(!d11);
        for j in 0..rng.gen_range(min..3) {
            publication(rng, format!("{prefix}s{k}_{j}"), &mut s);
        }
        s.push_str("</gradStudent>");
    }
    for _ in 0..rng.gen_range(0..4) {
        s.push_str("<course/>");
    }
    s.push_str("</department>");
    s
}

/// A D9-valid professor document with `venues` journal/conference
/// entries.
fn professor(rng: &mut StdRng, venues: usize) -> String {
    let mut s = String::from("<professor><name>Y</name>");
    for _ in 0..venues {
        s.push_str(if rng.gen_bool(0.5) {
            "<journal/>"
        } else {
            "<conference/>"
        });
    }
    s.push_str("</professor>");
    s
}

/// The first child name in the root's content model of a generated DTD.
fn root_child(dtd: &Dtd) -> String {
    match dtd.get(dtd.doc_type) {
        Some(ContentModel::Elements(r)) => r
            .names()
            .into_iter()
            .next()
            .map_or_else(|| dtd.doc_type.to_string(), |n| n.to_string()),
        _ => dtd.doc_type.to_string(),
    }
}

/// Zipf-like weight of rank `k`.
fn zipf(k: usize) -> f64 {
    1.0 / (k as f64 + 1.0)
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let d1 = mix_dtd::paper::d1_department();
    let d9 = mix_dtd::paper::d9_professor();
    let d11 = mix_dtd::paper::d11_department();
    let gen = seeded_dtd(
        seed,
        &DtdGenConfig {
            names: 10,
            ..DtdGenConfig::default()
        },
    );
    let mut gen_doc = Vec::new();
    write_sized_document(
        &gen,
        seed,
        ChunkedDocConfig {
            target_bytes: 8 << 10,
            max_subtree_bytes: 1 << 10,
            ..ChunkedDocConfig::default()
        },
        &mut gen_doc,
    )
    .expect("writing to memory cannot fail");
    let gen_doc = String::from_utf8(gen_doc).expect("generated documents are UTF-8");
    let (root, child) = (gen.doc_type.to_string(), root_child(&gen));

    let sources = vec![
        (
            "s1".to_owned(),
            SourceInput::Daemon {
                doc: department(&mut rng, "", PROFESSORS, false),
                dtd: d1,
            },
        ),
        (
            "s9".to_owned(),
            SourceInput::Daemon {
                doc: professor(&mut rng, 200),
                dtd: d9,
            },
        ),
        (
            "s11".to_owned(),
            SourceInput::Daemon {
                doc: department(&mut rng, "q", PROFESSORS, true),
                dtd: d11,
            },
        ),
        (
            "sg".to_owned(),
            SourceInput::Daemon {
                doc: gen_doc,
                dtd: gen,
            },
        ),
    ];
    let profs = "SELECT P WHERE <department> P:<professor/> </department>";
    let jpubs = "SELECT P WHERE <department> <professor | gradStudent> \
                 P:<publication><journal/></publication> </> </department>";
    let gen_view = format!("SELECT P WHERE <{root}> P:<{child}/> </{root}>");
    let s = |x: &str| x.to_owned();
    let views = vec![
        (s("s1"), format!("profs1 = {profs}")),
        (s("s1"), format!("jpubs1 = {jpubs}")),
        (s("s11"), format!("profs11 = {profs}")),
        (
            s("s9"),
            s("venues9 = SELECT P WHERE <professor> P:<journal/> </professor>"),
        ),
        (s("sg"), format!("gen = {gen_view}")),
    ];
    let unions = vec![
        (
            s("everyone"),
            vec![
                (s("s1"), format!("m = {profs}")),
                (s("s9"), s("m = SELECT P WHERE P:<professor/>")),
                (s("s11"), format!("m = {profs}")),
                (s("sg"), format!("m = {gen_view}")),
            ],
        ),
        (
            // D9 and the generated DTD have no publications: those two
            // members are provably empty and never fetched
            s("pubsAll"),
            vec![
                (s("s1"), format!("m = {jpubs}")),
                (
                    s("s9"),
                    s("m = SELECT P WHERE <professor> P:<publication/> </professor>"),
                ),
                (s("s11"), format!("m = {jpubs}")),
                (
                    s("sg"),
                    format!("m = SELECT P WHERE <{root}> P:<publication/> </{root}>"),
                ),
            ],
        ),
    ];

    // (text, weight): shares are 60% composed, 25% union
    // materializations, 15% provably empty
    let mut mix: Vec<(String, f64)> = Vec::new();
    let mut kind = |texts: Vec<String>, share: f64, skewed: bool| {
        let w: Vec<f64> = (0..texts.len())
            .map(|k| if skewed { zipf(k) } else { 1.0 })
            .collect();
        let total: f64 = w.iter().sum();
        for (t, w) in texts.into_iter().zip(w) {
            mix.push((t, share * w / total));
        }
    };
    // the skew runs over a seeded order of each template's texts; ranks
    // alternate between the templates, so every seed gives each template
    // the same share of the hot texts and the mix costs the same
    let mut templates: Vec<Vec<String>> = vec![
        (0..PROFESSORS)
            .map(|k| format!("ans = SELECT X WHERE <profs1> X:<professor> <firstName>p{k}</firstName> </professor> </profs1>"))
            .collect(),
        (0..PROFESSORS)
            .map(|k| format!("ans = SELECT X WHERE <jpubs1> X:<publication> <title>t{k}_0</title> </publication> </jpubs1>"))
            .collect(),
        (0..PROFESSORS)
            .map(|k| format!("ans = SELECT X WHERE <profs11> X:<professor> <firstName>qp{k}</firstName> </professor> </profs11>"))
            .collect(),
    ];
    for t in &mut templates {
        for i in (1..t.len()).rev() {
            t.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut composed: Vec<String> = (0..PROFESSORS)
        .flat_map(|k| templates.iter().map(move |t| t[k].clone()))
        .collect();
    composed.push(s("ans = SELECT X WHERE <venues9> X:<journal/> </venues9>"));
    composed.push(format!("ans = SELECT X WHERE <gen> X:<{child}/> </gen>"));
    kind(composed, 0.60, true);
    let mut unions_q = vec![s(
        "ans = SELECT X WHERE <everyone> X:<professor/> </everyone>",
    )];
    for m in 0..8 {
        unions_q.push(format!(
            "ans = SELECT X WHERE <everyone> X:<professor> <lastName>l{m}</lastName> </professor> </everyone>"
        ));
    }
    kind(unions_q, 0.25, false);
    let mut empty = Vec::new();
    for k in 0..16 {
        empty.push(format!(
            "ans = SELECT C WHERE <profs1> <professor> <firstName>p{k}</firstName> C:<course/> </professor> </profs1>"
        ));
    }
    for a in 0..8 {
        empty.push(format!(
            "ans = SELECT X WHERE <pubsAll> X:<publication> <author>a{a}</author> </publication> </pubsAll>"
        ));
    }
    kind(empty, 0.15, false);
    let (texts, weights) = mix.into_iter().unzip();
    Inputs {
        sources,
        views,
        unions,
        texts,
        weights,
        clients: crate::harness::cpus().min(2),
        warmup_ops: 100,
        setups: 2,
        seed,
    }
}
