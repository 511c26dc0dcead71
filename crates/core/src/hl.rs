//! High-level program structure inferred from `log_pc` instrumentation.
//!
//! Two data structures from §3 of the paper:
//!
//! - [`HlTree`] — the *high-level execution tree* (Figure 3): the unfolding
//!   of observed HLPC sequences. A node identifies a *dynamic HLPC* — the
//!   occurrence of an HLPC in the unfolded high-level CFG — which is the
//!   level-1 class of path-optimized CUPA.
//! - [`HlCfg`] — the *high-level CFG* discovered on the fly, with the
//!   branching-opcode heuristics of §3.4: identify opcodes that may branch
//!   (terminate a block with out-degree ≥ 2, minus the 10% least frequent),
//!   find *potential branching points* (branching opcode, single successor),
//!   and compute each location's distance to the nearest one.

use std::collections::VecDeque;

use chef_solver::{FxHashMap, FxHashSet};

/// Node index in the [`HlTree`]. Node 0 is the root (before any `log_pc`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HlNodeId(pub u32);

/// The root node id.
pub const HL_ROOT: HlNodeId = HlNodeId(0);

#[derive(Clone, Debug)]
struct HlNode {
    parent: HlNodeId,
    hlpc: u64,
    depth: u32,
}

/// The high-level execution tree: each path of HLPC values maps to a unique
/// leaf-ward chain of nodes, so a node id identifies a high-level path
/// prefix (the *dynamic HLPC*).
#[derive(Debug)]
pub struct HlTree {
    nodes: Vec<HlNode>,
    children: FxHashMap<(HlNodeId, u64), HlNodeId>,
}

impl Default for HlTree {
    fn default() -> Self {
        Self::new()
    }
}

impl HlTree {
    /// Creates a tree holding only the root.
    pub fn new() -> Self {
        HlTree {
            nodes: vec![HlNode {
                parent: HL_ROOT,
                hlpc: u64::MAX,
                depth: 0,
            }],
            children: FxHashMap::default(),
        }
    }

    /// The child of `parent` for `hlpc`, created on first use.
    pub fn child(&mut self, parent: HlNodeId, hlpc: u64) -> HlNodeId {
        if let Some(&c) = self.children.get(&(parent, hlpc)) {
            return c;
        }
        let id = HlNodeId(self.nodes.len() as u32);
        let depth = self.nodes[parent.0 as usize].depth + 1;
        self.nodes.push(HlNode {
            parent,
            hlpc,
            depth,
        });
        self.children.insert((parent, hlpc), id);
        id
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: HlNodeId) -> u32 {
        self.nodes[id.0 as usize].depth
    }

    /// The HLPC values from the root to `id` (inclusive, root excluded).
    pub fn path_to(&self, id: HlNodeId) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = id;
        while cur != HL_ROOT {
            let n = &self.nodes[cur.0 as usize];
            out.push(n.hlpc);
            cur = n.parent;
        }
        out.reverse();
        out
    }
}

#[derive(Clone, Debug, Default)]
struct CfgNode {
    opcode: u64,
    succs: FxHashSet<u64>,
    /// How many times this HLPC was observed (execution frequency).
    hits: u64,
}

/// The dynamically discovered high-level control-flow graph with the
/// coverage heuristics of §3.4.
#[derive(Debug, Default)]
pub struct HlCfg {
    nodes: FxHashMap<u64, CfgNode>,
    dirty: bool,
    distances: FxHashMap<u64, u32>,
    branching_opcodes: FxHashSet<u64>,
}

impl HlCfg {
    /// Creates an empty CFG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observed transition `from → to`, where `to` executes
    /// `opcode`. `from` is `None` at the start of a path.
    pub fn observe(&mut self, from: Option<u64>, to: u64, opcode: u64) {
        let node = self.nodes.entry(to).or_default();
        node.opcode = opcode;
        node.hits += 1;
        if let Some(f) = from {
            let fnode = self.nodes.entry(f).or_default();
            if fnode.succs.insert(to) {
                self.dirty = true;
            }
        }
        self.dirty = true;
    }

    /// Number of distinct HLPC locations seen.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no location has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All discovered locations.
    pub fn hlpcs(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes.keys().copied()
    }

    /// Out-degree of a location.
    pub fn out_degree(&self, hlpc: u64) -> usize {
        self.nodes.get(&hlpc).map_or(0, |n| n.succs.len())
    }

    /// All discovered edges as `(from, to, to_opcode)` triples — the
    /// portable form of the coverage map, which fleet workers exchange so
    /// each engine's §3.4 weights see the union of everyone's exploration.
    pub fn edges(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.nodes.iter().flat_map(move |(&from, n)| {
            n.succs.iter().map(move |&to| {
                let op = self.nodes.get(&to).map_or(0, |t| t.opcode);
                (from, to, op)
            })
        })
    }

    /// Recomputes branching opcodes, potential branching points, and
    /// distances if anything changed since the last call.
    pub fn refresh(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        // 1. Branching opcodes: opcodes observed terminating a "block" with
        //    out-degree >= 2; drop the 10% least frequent (§3.4).
        let mut opcode_freq: FxHashMap<u64, u64> = FxHashMap::default();
        let mut branching: FxHashMap<u64, u64> = FxHashMap::default();
        for n in self.nodes.values() {
            *opcode_freq.entry(n.opcode).or_insert(0) += n.hits;
            if n.succs.len() >= 2 {
                *branching.entry(n.opcode).or_insert(0) += n.hits;
            }
        }
        let mut ranked: Vec<(u64, u64)> = branching
            .keys()
            .map(|&op| (op, opcode_freq.get(&op).copied().unwrap_or(0)))
            .collect();
        ranked.sort_by_key(|&(_, f)| f);
        let drop_n = ranked.len() / 10;
        self.branching_opcodes = ranked[drop_n..].iter().map(|&(op, _)| op).collect();
        // 2. Potential branching points: branching opcode, but only one
        //    successor explored so far.
        let targets: Vec<u64> = self
            .nodes
            .iter()
            .filter(|(_, n)| self.branching_opcodes.contains(&n.opcode) && n.succs.len() <= 1)
            .map(|(&pc, _)| pc)
            .collect();
        // 3. Multi-source BFS on reversed edges gives, for every location,
        //    the forward distance to the nearest potential branching point.
        let mut preds: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
        for (&pc, n) in &self.nodes {
            for &s in &n.succs {
                preds.entry(s).or_default().push(pc);
            }
        }
        self.distances.clear();
        let mut queue = VecDeque::new();
        for &t in &targets {
            self.distances.insert(t, 0);
            queue.push_back(t);
        }
        while let Some(pc) = queue.pop_front() {
            let d = self.distances[&pc];
            if let Some(ps) = preds.get(&pc) {
                for &p in ps.clone().iter() {
                    if let std::collections::hash_map::Entry::Vacant(e) = self.distances.entry(p) {
                        e.insert(d + 1);
                        queue.push_back(p);
                    }
                }
            }
        }
    }

    /// Distance from `hlpc` to the nearest potential branching point, after
    /// [`HlCfg::refresh`]. `None` when no branching point is reachable.
    pub fn distance(&self, hlpc: u64) -> Option<u32> {
        self.distances.get(&hlpc).copied()
    }

    /// The class weight of §3.4 level 1: `1 / (1 + d)`, with a small floor
    /// for locations that cannot reach any potential branching point.
    pub fn coverage_weight(&self, hlpc: u64) -> f64 {
        match self.distance(hlpc) {
            Some(d) => 1.0 / (1.0 + d as f64),
            None => 0.05,
        }
    }

    /// Whether the opcode is currently classified as branching.
    pub fn is_branching_opcode(&self, opcode: u64) -> bool {
        self.branching_opcodes.contains(&opcode)
    }

    /// Anchor sites for the adaptive fast-forward gate: loop back-edge
    /// targets (a successor at or before its source in HLPC order — the
    /// interpreter loop's re-entry points) and dispatch heads (out-degree
    /// ≥ 3, the opcode-dispatch fan-outs). Sorted, so consumers observe a
    /// deterministic order regardless of hash-map iteration.
    pub fn anchor_sites(&self) -> Vec<u64> {
        let mut anchors = std::collections::BTreeSet::new();
        for (&from, n) in &self.nodes {
            if n.succs.len() >= 3 {
                anchors.insert(from);
            }
            for &to in &n.succs {
                if to <= from {
                    anchors.insert(to);
                }
            }
        }
        anchors.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_children_are_memoized() {
        let mut t = HlTree::new();
        let a = t.child(HL_ROOT, 10);
        let b = t.child(HL_ROOT, 10);
        assert_eq!(a, b);
        let c = t.child(a, 20);
        assert_ne!(a, c);
        assert_eq!(t.depth(c), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tree_distinguishes_contexts() {
        // Same HLPC reached along different prefixes = different dynamic HLPC.
        let mut t = HlTree::new();
        let a = t.child(HL_ROOT, 1);
        let b = t.child(HL_ROOT, 2);
        let a3 = t.child(a, 3);
        let b3 = t.child(b, 3);
        assert_ne!(a3, b3);
        assert_eq!(t.path_to(a3), vec![1, 3]);
        assert_eq!(t.path_to(b3), vec![2, 3]);
    }

    #[test]
    fn cfg_distance_to_potential_branch() {
        let mut g = HlCfg::new();
        // Chain 1 -> 2 -> 3, where 3 has a branching opcode (we fake it by
        // giving node 4 the same opcode with two successors).
        g.observe(None, 1, 100);
        g.observe(Some(1), 2, 100);
        g.observe(Some(2), 3, 7); // branch opcode, one successor so far
        g.observe(Some(3), 1, 100);
        // Teach the CFG that opcode 7 branches: node 4 with two successors.
        g.observe(Some(9), 4, 7);
        g.observe(Some(4), 5, 100);
        g.observe(Some(4), 6, 100);
        g.refresh();
        assert!(g.is_branching_opcode(7));
        // 3 is a potential branching point (opcode 7, out-degree 1).
        assert_eq!(g.distance(3), Some(0));
        assert_eq!(g.distance(2), Some(1));
        assert_eq!(g.distance(1), Some(2)); // 1 -> 2 -> 3
    }

    #[test]
    fn cfg_weight_prefers_near_branches() {
        let mut g = HlCfg::new();
        g.observe(None, 1, 1);
        g.observe(Some(1), 2, 2);
        g.observe(Some(2), 3, 2);
        // opcode 2 branches elsewhere:
        g.observe(Some(8), 10, 2);
        g.observe(Some(10), 11, 1);
        g.observe(Some(10), 12, 1);
        g.refresh();
        let w2 = g.coverage_weight(2);
        let w1 = g.coverage_weight(1);
        assert!(w2 >= w1, "closer to the frontier should weigh more");
    }

    #[test]
    fn refresh_is_idempotent() {
        let mut g = HlCfg::new();
        g.observe(None, 1, 1);
        g.refresh();
        let d1 = g.distance(1);
        g.refresh();
        assert_eq!(g.distance(1), d1);
    }
}
