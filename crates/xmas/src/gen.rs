//! Random pick-element query generation against a DTD — the query half of
//! the workload generator (DESIGN.md system #12; powers the soundness
//! property suite X2 and the benches).
//!
//! Generated queries are *schema-aware*: conditions follow the DTD's
//! parent–child structure so a useful fraction of them is satisfiable, and
//! a configurable fraction deliberately violates the schema to exercise
//! the unsatisfiable paths.

use crate::ast::{Body, Condition, Query, Var};
use mix_dtd::{ContentModel, Dtd};
use mix_relang::symbol::Name;
use rand::Rng;

/// Knobs for [`random_query`].
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Maximum depth of the condition tree.
    pub max_depth: usize,
    /// Maximum child conditions per node.
    pub max_children: usize,
    /// Probability that a PCDATA child gets a string-equality condition.
    pub text_prob: f64,
    /// Probability that a condition node names a *random* (likely
    /// schema-violating) element instead of a schema child.
    pub chaos_prob: f64,
    /// Probability that a same-name sibling condition is duplicated with
    /// `id` variables and a `!=` constraint (the Example 4.2 pattern).
    pub dup_prob: f64,
    /// Strings used for text conditions (should overlap the document
    /// sampler's pool so conditions sometimes match).
    pub string_pool: Vec<String>,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            max_depth: 4,
            max_children: 2,
            text_prob: 0.25,
            chaos_prob: 0.05,
            dup_prob: 0.2,
            string_pool: ["CS", "EE", "Math"].iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Generates a random pick-element query rooted at `dtd`'s document type,
/// with the pick variable `P` placed on a random root-to-leaf path.
pub fn random_query(dtd: &Dtd, rng: &mut impl Rng, cfg: &QueryGenConfig) -> Query {
    let mut state = Gen {
        dtd,
        cfg,
        next_id: 0,
        diseqs: Vec::new(),
    };
    let mut root = state.condition(dtd.doc_type, cfg.max_depth, rng);
    // place the pick on a random path: walk down, then bind.
    place_pick(&mut root, rng);
    Query {
        view_name: Name::intern("view"),
        pick: Var::new("P"),
        root,
        diseqs: state.diseqs,
    }
}

struct Gen<'a, 'c> {
    dtd: &'a Dtd,
    cfg: &'c QueryGenConfig,
    next_id: u32,
    diseqs: Vec<(Var, Var)>,
}

impl Gen<'_, '_> {
    fn fresh_id_var(&mut self) -> Var {
        self.next_id += 1;
        Var::new(&format!("Id{}", self.next_id))
    }

    fn condition(&mut self, n: Name, depth: usize, rng: &mut impl Rng) -> Condition {
        let model = self.dtd.get(n);
        match model {
            Some(ContentModel::Pcdata) => {
                if rng.gen_bool(self.cfg.text_prob) && !self.cfg.string_pool.is_empty() {
                    let s = &self.cfg.string_pool[rng.gen_range(0..self.cfg.string_pool.len())];
                    Condition::text(n, s)
                } else {
                    Condition::elem(n, vec![])
                }
            }
            Some(ContentModel::Elements(r)) if depth > 0 => {
                let candidates: Vec<Name> = r.names().into_iter().collect();
                let mut children = Vec::new();
                if !candidates.is_empty() {
                    let k = rng.gen_range(0..=self.cfg.max_children.min(candidates.len()));
                    for _ in 0..k {
                        let child = if rng.gen_bool(self.cfg.chaos_prob) {
                            // a random name from the whole DTD — often not
                            // a legal child here
                            let all = self.dtd.names();
                            all[rng.gen_range(0..all.len())]
                        } else {
                            candidates[rng.gen_range(0..candidates.len())]
                        };
                        let mut c = self.condition(child, depth - 1, rng);
                        let has_inner_vars = c
                            .walk()
                            .iter()
                            .any(|x| x.var.is_some() || x.id_var.is_some());
                        if !has_inner_vars && rng.gen_bool(self.cfg.dup_prob) {
                            // duplicate with a != pair (Example 4.2 pattern)
                            let a = self.fresh_id_var();
                            let b = self.fresh_id_var();
                            let mut c2 = c.clone();
                            c.id_var = Some(a);
                            c2.id_var = Some(b);
                            self.diseqs.push((a, b));
                            children.push(c2);
                        }
                        children.push(c);
                    }
                }
                Condition::elem(n, children)
            }
            _ => Condition::elem(n, vec![]),
        }
    }
}

/// Binds `P` to a random node on a random downward path.
fn place_pick(c: &mut Condition, rng: &mut impl Rng) {
    let descend = !c.children().is_empty() && rng.gen_bool(0.6);
    if descend {
        if let Body::Children(kids) = &mut c.body {
            let i = rng.gen_range(0..kids.len());
            place_pick(&mut kids[i], rng);
            return;
        }
    }
    c.var = Some(Var::new("P"));
}

/// Generates a random user query addressed at a *view* (root test = view
/// name) — used to exercise the mediator's composition/materialization
/// paths.
pub fn random_view_query(view_dtd: &Dtd, rng: &mut impl Rng, cfg: &QueryGenConfig) -> Query {
    let mut q = random_query(view_dtd, rng, cfg);
    q.view_name = Name::intern("ans");
    // the generator roots at the view DTD's doc type, which is the view
    // name — exactly what the mediator expects
    debug_assert_eq!(q.root.test.names().first(), Some(&view_dtd.doc_type));
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use mix_dtd::paper::d1_department;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_queries_normalize() {
        let d = d1_department();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let q = random_query(&d, &mut rng, &QueryGenConfig::default());
            let n = normalize(&q, &d).unwrap_or_else(|e| panic!("{e} in\n{q}"));
            assert!(n.pick_path().is_some());
        }
    }

    #[test]
    fn pick_is_always_on_a_path() {
        let d = d1_department();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let q = random_query(&d, &mut rng, &QueryGenConfig::default());
            let path = q.pick_path().expect("pick bound");
            assert_eq!(path[0].test.names(), &[d.doc_type]);
        }
    }

    #[test]
    fn duplicated_conditions_carry_diseqs() {
        let d = d1_department();
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = QueryGenConfig {
            dup_prob: 1.0,
            max_children: 1,
            ..QueryGenConfig::default()
        };
        let mut saw_diseq = false;
        for _ in 0..50 {
            let q = random_query(&d, &mut rng, &cfg);
            if !q.diseqs.is_empty() {
                saw_diseq = true;
                for (a, b) in &q.diseqs {
                    let vars = q.declared_vars();
                    assert!(vars.contains(a) && vars.contains(b));
                }
            }
        }
        assert!(saw_diseq);
    }

    #[test]
    fn chaos_free_generation_sticks_to_schema() {
        let d = d1_department();
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = QueryGenConfig {
            chaos_prob: 0.0,
            ..QueryGenConfig::default()
        };
        for _ in 0..50 {
            let q = random_query(&d, &mut rng, &cfg);
            // every condition name is declared in the DTD
            for c in q.root.walk() {
                for n in c.test.names() {
                    assert!(d.types.contains(*n), "undeclared {n}");
                }
            }
        }
    }
}
