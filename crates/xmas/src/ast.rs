//! The pick-element fragment of XMAS (Section 2.1).
//!
//! A query names a view, SELECTs a single *pick variable*, and constrains
//! it with one tree condition over one source, plus id-inequalities
//! (`Pub1 != Pub2`). Element-name positions hold a constant, a disjunction
//! of constants, or a wildcard (an element-name variable that occurs
//! nowhere else — the paper's preprocessing replaces it with the
//! disjunction of all source-DTD names, see [`crate::normalize::normalize`]).

use mix_relang::symbol::{Name, Tag};
use std::fmt;

/// A query variable (`P`, `Pub1`, …), interned.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Name);

impl Var {
    /// Interns a variable by name.
    pub fn new(s: &str) -> Var {
        Var(Name::intern(s))
    }

    /// The variable's name.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// What an element-name position matches.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NameTest {
    /// A disjunction of constant names (`professor | gradStudent`); a
    /// single constant is the common case.
    Names(Vec<Name>),
    /// The wildcard `*`: an element-name variable that appears nowhere
    /// else. Normalization expands it to `Names(all source names)`.
    Wildcard,
}

impl NameTest {
    /// A single-constant test.
    pub fn name(n: Name) -> NameTest {
        NameTest::Names(vec![n])
    }

    /// Does the test match `n`? (Wildcard matches everything.)
    pub fn matches(&self, n: Name) -> bool {
        match self {
            NameTest::Names(v) => v.contains(&n),
            NameTest::Wildcard => true,
        }
    }

    /// The constant names, if already expanded.
    pub fn names(&self) -> &[Name] {
        match self {
            NameTest::Names(v) => v,
            NameTest::Wildcard => &[],
        }
    }
}

/// What a condition requires of the matched element's content.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Body {
    /// Each child condition must be satisfied by a *distinct* child
    /// element (containment semantics; an empty list constrains nothing).
    Children(Vec<Condition>),
    /// The element's content must be exactly this string
    /// (`<name>CS</name>`).
    Text(String),
}

/// One node of a tree condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Condition {
    /// The element-name test.
    pub test: NameTest,
    /// Element variable bound to the matched element (`P:<…>`).
    pub var: Option<Var>,
    /// ID variable (`id=Pub1`), used by `!=` constraints.
    pub id_var: Option<Var>,
    /// Specialization tag assigned by normalization (0 = not yet assigned).
    /// Tags are unique per name across the query; the tightening algorithm
    /// stores this condition's refined type under `name^tag`.
    pub tag: Tag,
    /// The content requirement.
    pub body: Body,
}

impl Condition {
    /// A condition matching elements named `n` with the given children.
    pub fn elem(n: Name, children: Vec<Condition>) -> Condition {
        Condition {
            test: NameTest::name(n),
            var: None,
            id_var: None,
            tag: 0,
            body: Body::Children(children),
        }
    }

    /// A condition requiring string content.
    pub fn text(n: Name, value: &str) -> Condition {
        Condition {
            test: NameTest::name(n),
            var: None,
            id_var: None,
            tag: 0,
            body: Body::Text(value.to_owned()),
        }
    }

    /// Attaches an element variable (builder style).
    pub fn bind(mut self, v: Var) -> Condition {
        self.var = Some(v);
        self
    }

    /// Child conditions (empty for text bodies).
    pub fn children(&self) -> &[Condition] {
        match &self.body {
            Body::Children(v) => v,
            Body::Text(_) => &[],
        }
    }

    /// Depth-first traversal of the condition tree (self first).
    pub fn walk(&self) -> Vec<&Condition> {
        let mut out = vec![self];
        let mut i = 0;
        while i < out.len() {
            let c = out[i];
            out.extend(c.children());
            i += 1;
        }
        out
    }

    /// Finds the node binding `v`, with the path of nodes from `self`
    /// (inclusive) down to it.
    pub fn path_to_var(&self, v: Var) -> Option<Vec<&Condition>> {
        if self.var == Some(v) {
            return Some(vec![self]);
        }
        for c in self.children() {
            if let Some(mut p) = c.path_to_var(v) {
                let mut full = vec![self];
                full.append(&mut p);
                return Some(full);
            }
        }
        None
    }
}

/// A pick-element XMAS query (also a view definition — a view is a query
/// with a name it is published under).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// The view/result document name (`withJournals = SELECT …`).
    pub view_name: Name,
    /// The pick variable of the SELECT clause.
    pub pick: Var,
    /// The single tree condition of the WHERE clause.
    pub root: Condition,
    /// Id-inequality constraints (`Pub1 != Pub2`).
    pub diseqs: Vec<(Var, Var)>,
}

impl Query {
    /// All variables declared in the condition tree (element + id vars).
    pub fn declared_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for c in self.root.walk() {
            if let Some(v) = c.var {
                out.push(v);
            }
            if let Some(v) = c.id_var {
                out.push(v);
            }
        }
        out
    }

    /// The path of condition nodes from the root to the pick node, or
    /// `None` if the pick variable is not bound in the tree.
    pub fn pick_path(&self) -> Option<Vec<&Condition>> {
        self.root.path_to_var(self.pick)
    }

    /// The condition node binding the pick variable.
    pub fn pick_node(&self) -> Option<&Condition> {
        self.pick_path().map(|p| *p.last().expect("path nonempty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_relang::symbol::name;

    fn sample() -> Query {
        // publist = SELECT P WHERE <department> <gradStudent> P:<publication/> </> </>
        let p = Var::new("P");
        Query {
            view_name: name("publist"),
            pick: p,
            root: Condition::elem(
                name("department"),
                vec![Condition::elem(
                    name("gradStudent"),
                    vec![Condition::elem(name("publication"), vec![]).bind(p)],
                )],
            ),
            diseqs: vec![],
        }
    }

    #[test]
    fn path_to_pick() {
        let q = sample();
        let path = q.pick_path().unwrap();
        let names: Vec<&str> = path.iter().map(|c| c.test.names()[0].as_str()).collect();
        assert_eq!(names, ["department", "gradStudent", "publication"]);
        assert_eq!(q.pick_node().unwrap().var, Some(q.pick));
    }

    #[test]
    fn walk_order() {
        let q = sample();
        let all = q.root.walk();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn missing_pick() {
        let mut q = sample();
        q.pick = Var::new("Q");
        assert!(q.pick_path().is_none());
    }

    #[test]
    fn nametest_matching() {
        let t = NameTest::Names(vec![name("a"), name("b")]);
        assert!(t.matches(name("a")));
        assert!(!t.matches(name("c")));
        assert!(NameTest::Wildcard.matches(name("zzz")));
    }

    #[test]
    fn declared_vars_include_id_vars() {
        let mut q = sample();
        if let Body::Children(children) = &mut q.root.body {
            if let Body::Children(gchildren) = &mut children[0].body {
                gchildren[0].id_var = Some(Var::new("Pub1"));
            }
        }
        let vars = q.declared_vars();
        assert!(vars.contains(&Var::new("P")));
        assert!(vars.contains(&Var::new("Pub1")));
    }
}
