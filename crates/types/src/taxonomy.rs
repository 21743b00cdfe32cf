//! The hierarchical topic directory `C` (§1.1).
//!
//! A tree-shaped taxonomy such as Yahoo!. Each node is a topic/class; the
//! user marks a subset `C*` *good*. The marking algebra from the paper:
//!
//! * **good** — a topic in `C*`. No good topic may be an ancestor of
//!   another good topic.
//! * **path** — a proper ancestor of a good topic (including the root).
//!   `BulkProbe` is evaluated exactly at path nodes, in topological order.
//! * **subsumed** — a topic in the subtree of a good topic.
//! * **null** — everything else; not of interest *for this crawl* but kept
//!   so a different crawl can re-mark them (§2.1.3).

use crate::error::{FocusError, Result};
use crate::ids::ClassId;

/// Per-node interest marking (paper Figure 1, `type` column of `TAXONOMY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mark {
    /// In the user's good set `C*`.
    Good,
    /// Proper ancestor of a good node.
    Path,
    /// Proper descendant of a good node.
    Subsumed,
    /// Not of interest in this crawl.
    Null,
}

/// One topic node.
#[derive(Debug, Clone)]
pub struct TaxonomyNode {
    /// This node's id. Ids are dense: `0..taxonomy.len()`.
    pub id: ClassId,
    /// Human-readable topic name, e.g. `"recreation/cycling"`.
    pub name: String,
    /// Parent class; `None` only for the root.
    pub parent: Option<ClassId>,
    /// Children in insertion order.
    pub children: Vec<ClassId>,
    /// Current interest marking.
    pub mark: Mark,
}

/// The topic tree.
///
/// Node ids are dense `u16` values assigned in insertion order with the
/// root at [`ClassId::ROOT`], which makes them directly usable as the
/// 16-bit `cid` column of the relational schemas.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    nodes: Vec<TaxonomyNode>,
}

impl Taxonomy {
    /// Create a taxonomy containing only a root topic.
    pub fn new(root_name: impl Into<String>) -> Self {
        Taxonomy {
            nodes: vec![TaxonomyNode {
                id: ClassId::ROOT,
                name: root_name.into(),
                parent: None,
                children: Vec::new(),
                mark: Mark::Null,
            }],
        }
    }

    /// Number of topics (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Add a child topic under `parent`; returns the new class id.
    pub fn add_child(&mut self, parent: ClassId, name: impl Into<String>) -> Result<ClassId> {
        self.check(parent)?;
        if self.nodes.len() > u16::MAX as usize {
            return Err(FocusError::InvalidTaxonomy(
                "taxonomy exceeds 16-bit class id space".into(),
            ));
        }
        let id = ClassId(self.nodes.len() as u16);
        self.nodes.push(TaxonomyNode {
            id,
            name: name.into(),
            parent: Some(parent),
            children: Vec::new(),
            mark: Mark::Null,
        });
        self.nodes[parent.raw() as usize].children.push(id);
        Ok(id)
    }

    /// Convenience: add a whole path of `/`-separated names, creating the
    /// missing components, and return the id of the deepest one.
    pub fn add_path(&mut self, path: &str) -> Result<ClassId> {
        let mut cur = ClassId::ROOT;
        let mut so_far = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            if !so_far.is_empty() {
                so_far.push('/');
            }
            so_far.push_str(comp);
            cur = match self.child_by_name(cur, &so_far) {
                Some(c) => c,
                None => self.add_child(cur, so_far.clone())?,
            };
        }
        Ok(cur)
    }

    fn child_by_name(&self, parent: ClassId, name: &str) -> Option<ClassId> {
        self.nodes[parent.raw() as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c.raw() as usize].name == name)
    }

    /// Look up a node.
    pub fn node(&self, id: ClassId) -> Result<&TaxonomyNode> {
        self.nodes
            .get(id.raw() as usize)
            .ok_or(FocusError::UnknownClass(id.raw()))
    }

    fn check(&self, id: ClassId) -> Result<()> {
        if (id.raw() as usize) < self.nodes.len() {
            Ok(())
        } else {
            Err(FocusError::UnknownClass(id.raw()))
        }
    }

    /// The node's display name.
    pub fn name(&self, id: ClassId) -> &str {
        &self.nodes[id.raw() as usize].name
    }

    /// Find a topic by exact name.
    pub fn find(&self, name: &str) -> Option<ClassId> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: ClassId) -> Option<ClassId> {
        self.nodes[id.raw() as usize].parent
    }

    /// Children of `id`.
    pub fn children(&self, id: ClassId) -> &[ClassId] {
        &self.nodes[id.raw() as usize].children
    }

    /// Current mark of `id`.
    pub fn mark(&self, id: ClassId) -> Mark {
        self.nodes[id.raw() as usize].mark
    }

    /// True if `id` has no children.
    pub fn is_leaf(&self, id: ClassId) -> bool {
        self.nodes[id.raw() as usize].children.is_empty()
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: ClassId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Is `a` a (non-strict) ancestor of `b`?
    pub fn is_ancestor(&self, a: ClassId, b: ClassId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Ancestors of `id` from its parent up to the root.
    pub fn ancestors(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(c) = cur {
            out.push(c);
            cur = self.parent(c);
        }
        out
    }

    /// Preorder walk of the subtree rooted at `id` (including `id`).
    pub fn subtree(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            // Reverse keeps preorder stable w.r.t. child insertion order.
            stack.extend(self.children(c).iter().rev().copied());
        }
        out
    }

    /// All leaf topics.
    pub fn leaves(&self) -> Vec<ClassId> {
        self.nodes
            .iter()
            .filter(|n| n.children.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// All internal (non-leaf) topics; these are the `c0`s that own a
    /// `STAT_c0` table and participate in `BulkProbe`.
    pub fn internal_nodes(&self) -> Vec<ClassId> {
        self.nodes
            .iter()
            .filter(|n| !n.children.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Every node id in dense order.
    pub fn all(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }

    /// Mark `good` as a good topic, enforcing the §1.1 constraint and
    /// updating ancestor (`Path`) and descendant (`Subsumed`) marks.
    pub fn mark_good(&mut self, good: ClassId) -> Result<()> {
        self.check(good)?;
        // No good topic may be an ancestor of another good topic.
        for other in self.good_set() {
            if other == good {
                return Ok(()); // idempotent
            }
            if self.is_ancestor(other, good) {
                return Err(FocusError::NestedGoodTopics {
                    ancestor: other.raw(),
                    descendant: good.raw(),
                });
            }
            if self.is_ancestor(good, other) {
                return Err(FocusError::NestedGoodTopics {
                    ancestor: good.raw(),
                    descendant: other.raw(),
                });
            }
        }
        self.nodes[good.raw() as usize].mark = Mark::Good;
        for a in self.ancestors(good) {
            self.nodes[a.raw() as usize].mark = Mark::Path;
        }
        for s in self.subtree(good) {
            if s != good {
                self.nodes[s.raw() as usize].mark = Mark::Subsumed;
            }
        }
        Ok(())
    }

    /// Remove the good mark from `c` and recompute all derived marks.
    pub fn unmark_good(&mut self, c: ClassId) -> Result<()> {
        self.check(c)?;
        let goods: Vec<ClassId> = self.good_set().into_iter().filter(|&g| g != c).collect();
        for n in &mut self.nodes {
            n.mark = Mark::Null;
        }
        for g in goods {
            self.mark_good(g)?;
        }
        Ok(())
    }

    /// The good set `C*`.
    pub fn good_set(&self) -> Vec<ClassId> {
        self.nodes
            .iter()
            .filter(|n| n.mark == Mark::Good)
            .map(|n| n.id)
            .collect()
    }

    /// Path nodes (ancestors of goods, including the root if anything is
    /// good) in topological (root-first) order. `BulkProbe` is called at
    /// exactly these nodes (Figure 3: "repeatedly called at all path nodes
    /// in topological order").
    pub fn path_nodes_topological(&self) -> Vec<ClassId> {
        let mut out: Vec<ClassId> = self
            .nodes
            .iter()
            .filter(|n| n.mark == Mark::Path)
            .map(|n| n.id)
            .collect();
        out.sort_by_key(|&c| self.depth(c));
        out
    }

    /// True when `d`'s best class makes the page relevant under the *hard*
    /// focus rule: some (non-strict) ancestor of `best` is good.
    pub fn hard_focus_accepts(&self, best: ClassId) -> bool {
        let mut cur = Some(best);
        while let Some(c) = cur {
            if self.mark(c) == Mark::Good {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Structural sanity used by property tests: parent/child links agree,
    /// ids dense, exactly one root, acyclic by construction.
    pub fn validate(&self) -> Result<()> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.raw() as usize != i {
                return Err(FocusError::InvalidTaxonomy(format!(
                    "node at slot {i} has id {}",
                    n.id.raw()
                )));
            }
            match n.parent {
                None if i != 0 => {
                    return Err(FocusError::InvalidTaxonomy(format!(
                        "non-root node {i} lacks a parent"
                    )))
                }
                Some(p) => {
                    self.check(p)?;
                    if !self.children(p).contains(&n.id) {
                        return Err(FocusError::InvalidTaxonomy(format!(
                            "parent {} does not list child {i}",
                            p.raw()
                        )));
                    }
                    if p.raw() >= n.id.raw() {
                        return Err(FocusError::InvalidTaxonomy(format!(
                            "child {} precedes its parent {}",
                            n.id.raw(),
                            p.raw()
                        )));
                    }
                }
                None => {}
            }
        }
        // Good-set constraint.
        let goods = self.good_set();
        for &a in &goods {
            for &b in &goods {
                if a != b && self.is_ancestor(a, b) {
                    return Err(FocusError::NestedGoodTopics {
                        ancestor: a.raw(),
                        descendant: b.raw(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Taxonomy, ClassId, ClassId, ClassId, ClassId) {
        let mut t = Taxonomy::new("root");
        let rec = t.add_child(ClassId::ROOT, "recreation").unwrap();
        let cyc = t.add_child(rec, "recreation/cycling").unwrap();
        let mtb = t.add_child(cyc, "recreation/cycling/mtb").unwrap();
        let biz = t.add_child(ClassId::ROOT, "business").unwrap();
        (t, rec, cyc, mtb, biz)
    }

    #[test]
    fn construction_and_lookup() {
        let (t, rec, cyc, mtb, biz) = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(t.parent(cyc), Some(rec));
        assert_eq!(t.children(rec), &[cyc]);
        assert_eq!(t.depth(mtb), 3);
        assert!(t.is_leaf(mtb) && t.is_leaf(biz));
        assert_eq!(t.find("recreation/cycling"), Some(cyc));
        assert_eq!(t.find("nope"), None);
        t.validate().unwrap();
    }

    #[test]
    fn add_path_creates_and_reuses_components() {
        let mut t = Taxonomy::new("root");
        let a = t.add_path("health/hiv").unwrap();
        let b = t.add_path("health/hiv").unwrap();
        assert_eq!(a, b);
        let c = t.add_path("health/nutrition").unwrap();
        assert_ne!(a, c);
        assert_eq!(t.len(), 4); // root, health, hiv, nutrition
        t.validate().unwrap();
    }

    #[test]
    fn marking_propagates_path_and_subsumed() {
        let (mut t, rec, cyc, mtb, biz) = sample();
        t.mark_good(cyc).unwrap();
        assert_eq!(t.mark(cyc), Mark::Good);
        assert_eq!(t.mark(rec), Mark::Path);
        assert_eq!(t.mark(ClassId::ROOT), Mark::Path);
        assert_eq!(t.mark(mtb), Mark::Subsumed);
        assert_eq!(t.mark(biz), Mark::Null);
        assert_eq!(t.good_set(), vec![cyc]);
    }

    #[test]
    fn nested_good_topics_rejected_both_directions() {
        let (mut t, rec, cyc, mtb, _) = sample();
        t.mark_good(cyc).unwrap();
        assert!(matches!(
            t.mark_good(mtb),
            Err(FocusError::NestedGoodTopics { .. })
        ));
        assert!(matches!(
            t.mark_good(rec),
            Err(FocusError::NestedGoodTopics { .. })
        ));
        // Siblings are fine.
        let (mut t2, _, cyc2, _, biz2) = sample();
        t2.mark_good(cyc2).unwrap();
        t2.mark_good(biz2).unwrap();
        assert_eq!(t2.good_set().len(), 2);
    }

    #[test]
    fn mark_good_is_idempotent() {
        let (mut t, _, cyc, _, _) = sample();
        t.mark_good(cyc).unwrap();
        t.mark_good(cyc).unwrap();
        assert_eq!(t.good_set(), vec![cyc]);
    }

    #[test]
    fn unmark_recomputes_derived_marks() {
        let (mut t, rec, cyc, mtb, biz) = sample();
        t.mark_good(cyc).unwrap();
        t.mark_good(biz).unwrap();
        t.unmark_good(cyc).unwrap();
        assert_eq!(t.mark(cyc), Mark::Null);
        assert_eq!(t.mark(rec), Mark::Null);
        assert_eq!(t.mark(mtb), Mark::Null);
        assert_eq!(t.mark(biz), Mark::Good);
        // Root stays Path because biz is still good.
        assert_eq!(t.mark(ClassId::ROOT), Mark::Path);
    }

    #[test]
    fn path_nodes_in_topological_order() {
        let (mut t, _, _, mtb, _) = sample();
        t.mark_good(mtb).unwrap();
        let path = t.path_nodes_topological();
        // root, recreation, cycling — strictly increasing depth.
        assert_eq!(path.len(), 3);
        for w in path.windows(2) {
            assert!(t.depth(w[0]) <= t.depth(w[1]));
        }
        assert_eq!(path[0], ClassId::ROOT);
    }

    #[test]
    fn hard_focus_rule() {
        let (mut t, _, cyc, mtb, biz) = sample();
        t.mark_good(cyc).unwrap();
        assert!(t.hard_focus_accepts(cyc));
        assert!(t.hard_focus_accepts(mtb)); // descendant of a good class
        assert!(!t.hard_focus_accepts(biz));
        assert!(!t.hard_focus_accepts(ClassId::ROOT));
    }

    #[test]
    fn subtree_and_ancestors() {
        let (t, rec, cyc, mtb, _) = sample();
        assert_eq!(t.subtree(rec), vec![rec, cyc, mtb]);
        assert_eq!(t.ancestors(mtb), vec![cyc, rec, ClassId::ROOT]);
        assert!(t.is_ancestor(rec, mtb));
        assert!(t.is_ancestor(mtb, mtb));
        assert!(!t.is_ancestor(mtb, rec));
    }

    #[test]
    fn unknown_class_is_reported() {
        let (mut t, ..) = sample();
        assert!(matches!(
            t.mark_good(ClassId(99)),
            Err(FocusError::UnknownClass(99))
        ));
        assert!(t.node(ClassId(99)).is_err());
    }
}
