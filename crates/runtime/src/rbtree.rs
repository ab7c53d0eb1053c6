//! A from-scratch red/black tree.
//!
//! The CARAT prototype's Allocation Table "is currently implemented as a
//! C++ red/black tree whose key is the address of an allocated block"; this
//! is the equivalent structure, arena-backed, with the order queries the
//! runtime needs (`floor`: greatest key ≤ x) and full delete support.
//!
//! Verified against `BTreeMap` by property tests and by an internal
//! invariant checker.

use std::cmp::Ordering;
use std::fmt;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    // `None` only for freed slots: avoids unsafe moves on removal.
    val: Option<V>,
    left: u32,
    right: u32,
    parent: u32,
    color: Color,
}

/// An ordered map implemented as a red/black tree.
#[derive(Clone)]
pub struct RbTree<K, V> {
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl<K: fmt::Debug + Ord, V: fmt::Debug> fmt::Debug for RbTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord, V> Default for RbTree<K, V> {
    fn default() -> RbTree<K, V> {
        RbTree::new()
    }
}

impl<K: Ord, V> RbTree<K, V> {
    /// An empty tree.
    pub fn new() -> RbTree<K, V> {
        RbTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes (used for the Figure 6 memory
    /// overhead accounting).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<K, V>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    fn node(&self, i: u32) -> &Node<K, V> {
        &self.nodes[i as usize]
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<K, V> {
        &mut self.nodes[i as usize]
    }

    fn color(&self, i: u32) -> Color {
        if i == NIL {
            Color::Black
        } else {
            self.node(i).color
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key)?;
        self.node(i).val.as_ref()
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key)?;
        self.node_mut(i).val.as_mut()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    fn find(&self, key: &K) -> Option<u32> {
        let mut cur = self.root;
        while cur != NIL {
            match key.cmp(&self.node(cur).key) {
                Ordering::Less => cur = self.node(cur).left,
                Ordering::Greater => cur = self.node(cur).right,
                Ordering::Equal => return Some(cur),
            }
        }
        None
    }

    /// Greatest entry with key ≤ `key` — the query the allocation table
    /// uses to find the allocation containing an address.
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let mut cur = self.root;
        let mut best = NIL;
        while cur != NIL {
            match key.cmp(&self.node(cur).key) {
                Ordering::Less => cur = self.node(cur).left,
                Ordering::Equal => {
                    best = cur;
                    break;
                }
                Ordering::Greater => {
                    best = cur;
                    cur = self.node(cur).right;
                }
            }
        }
        (best != NIL).then(|| {
            let n = self.node(best);
            (&n.key, n.val.as_ref().expect("live node has a value"))
        })
    }

    /// Insert; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        // BST insert.
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            parent = cur;
            match key.cmp(&self.node(cur).key) {
                Ordering::Less => cur = self.node(cur).left,
                Ordering::Greater => cur = self.node(cur).right,
                Ordering::Equal => {
                    return self.node_mut(cur).val.replace(val);
                }
            }
        }
        let fresh = Node {
            key,
            val: Some(val),
            left: NIL,
            right: NIL,
            parent,
            color: Color::Red,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = fresh;
                i
            }
            None => {
                self.nodes.push(fresh);
                (self.nodes.len() - 1) as u32
            }
        };
        if parent == NIL {
            self.root = idx;
        } else if self.node(idx).key < self.node(parent).key {
            self.node_mut(parent).left = idx;
        } else {
            self.node_mut(parent).right = idx;
        }
        self.len += 1;
        self.insert_fixup(idx);
        None
    }

    fn rotate_left(&mut self, x: u32) {
        let y = self.node(x).right;
        let yl = self.node(y).left;
        self.node_mut(x).right = yl;
        if yl != NIL {
            self.node_mut(yl).parent = x;
        }
        let xp = self.node(x).parent;
        self.node_mut(y).parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.node(xp).left == x {
            self.node_mut(xp).left = y;
        } else {
            self.node_mut(xp).right = y;
        }
        self.node_mut(y).left = x;
        self.node_mut(x).parent = y;
    }

    fn rotate_right(&mut self, x: u32) {
        let y = self.node(x).left;
        let yr = self.node(y).right;
        self.node_mut(x).left = yr;
        if yr != NIL {
            self.node_mut(yr).parent = x;
        }
        let xp = self.node(x).parent;
        self.node_mut(y).parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.node(xp).right == x {
            self.node_mut(xp).right = y;
        } else {
            self.node_mut(xp).left = y;
        }
        self.node_mut(y).right = x;
        self.node_mut(x).parent = y;
    }

    fn insert_fixup(&mut self, mut z: u32) {
        while self.color(self.node(z).parent) == Color::Red {
            let p = self.node(z).parent;
            let g = self.node(p).parent;
            if p == self.node(g).left {
                let u = self.node(g).right;
                if self.color(u) == Color::Red {
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(u).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    z = g;
                } else {
                    if z == self.node(p).right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.node(z).parent;
                    let g = self.node(p).parent;
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    self.rotate_right(g);
                }
            } else {
                let u = self.node(g).left;
                if self.color(u) == Color::Red {
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(u).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    z = g;
                } else {
                    if z == self.node(p).left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.node(z).parent;
                    let g = self.node(p).parent;
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    self.rotate_left(g);
                }
            }
            if z == self.root {
                break;
            }
        }
        let r = self.root;
        self.node_mut(r).color = Color::Black;
    }

    /// Remove a key; returns its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let z = self.find(key)?;
        self.len -= 1;
        // CLRS delete.
        let mut y = z;
        let mut y_color = self.node(y).color;
        let x;
        let x_parent;
        if self.node(z).left == NIL {
            x = self.node(z).right;
            x_parent = self.node(z).parent;
            self.transplant(z, x);
        } else if self.node(z).right == NIL {
            x = self.node(z).left;
            x_parent = self.node(z).parent;
            self.transplant(z, x);
        } else {
            // y = minimum of right subtree.
            y = self.minimum(self.node(z).right);
            y_color = self.node(y).color;
            x = self.node(y).right;
            if self.node(y).parent == z {
                x_parent = y;
            } else {
                x_parent = self.node(y).parent;
                self.transplant(y, x);
                let zr = self.node(z).right;
                self.node_mut(y).right = zr;
                self.node_mut(zr).parent = y;
            }
            self.transplant(z, y);
            let zl = self.node(z).left;
            self.node_mut(y).left = zl;
            self.node_mut(zl).parent = y;
            self.node_mut(y).color = self.node(z).color;
        }
        if y_color == Color::Black {
            self.delete_fixup(x, x_parent);
        }
        // Reclaim z's slot and move the value out.
        self.free.push(z);
        let node = &mut self.nodes[z as usize];
        node.left = NIL;
        node.right = NIL;
        node.parent = NIL;
        node.val.take()
    }

    fn transplant(&mut self, u: u32, v: u32) {
        let up = self.node(u).parent;
        if up == NIL {
            self.root = v;
        } else if self.node(up).left == u {
            self.node_mut(up).left = v;
        } else {
            self.node_mut(up).right = v;
        }
        if v != NIL {
            self.node_mut(v).parent = up;
        }
    }

    fn minimum(&self, mut i: u32) -> u32 {
        while self.node(i).left != NIL {
            i = self.node(i).left;
        }
        i
    }

    fn delete_fixup(&mut self, mut x: u32, mut parent: u32) {
        while x != self.root && self.color(x) == Color::Black {
            if parent == NIL {
                break;
            }
            if x == self.node(parent).left {
                let mut w = self.node(parent).right;
                if self.color(w) == Color::Red {
                    self.node_mut(w).color = Color::Black;
                    self.node_mut(parent).color = Color::Red;
                    self.rotate_left(parent);
                    w = self.node(parent).right;
                }
                if self.color(self.node(w).left) == Color::Black
                    && self.color(self.node(w).right) == Color::Black
                {
                    self.node_mut(w).color = Color::Red;
                    x = parent;
                    parent = self.node(x).parent;
                } else {
                    if self.color(self.node(w).right) == Color::Black {
                        let wl = self.node(w).left;
                        self.node_mut(wl).color = Color::Black;
                        self.node_mut(w).color = Color::Red;
                        self.rotate_right(w);
                        w = self.node(parent).right;
                    }
                    self.node_mut(w).color = self.node(parent).color;
                    self.node_mut(parent).color = Color::Black;
                    let wr = self.node(w).right;
                    if wr != NIL {
                        self.node_mut(wr).color = Color::Black;
                    }
                    self.rotate_left(parent);
                    x = self.root;
                    parent = NIL;
                }
            } else {
                let mut w = self.node(parent).left;
                if self.color(w) == Color::Red {
                    self.node_mut(w).color = Color::Black;
                    self.node_mut(parent).color = Color::Red;
                    self.rotate_right(parent);
                    w = self.node(parent).left;
                }
                if self.color(self.node(w).right) == Color::Black
                    && self.color(self.node(w).left) == Color::Black
                {
                    self.node_mut(w).color = Color::Red;
                    x = parent;
                    parent = self.node(x).parent;
                } else {
                    if self.color(self.node(w).left) == Color::Black {
                        let wr = self.node(w).right;
                        self.node_mut(wr).color = Color::Black;
                        self.node_mut(w).color = Color::Red;
                        self.rotate_left(w);
                        w = self.node(parent).left;
                    }
                    self.node_mut(w).color = self.node(parent).color;
                    self.node_mut(parent).color = Color::Black;
                    let wl = self.node(w).left;
                    if wl != NIL {
                        self.node_mut(wl).color = Color::Black;
                    }
                    self.rotate_right(parent);
                    x = self.root;
                    parent = NIL;
                }
            }
        }
        if x != NIL {
            self.node_mut(x).color = Color::Black;
        }
    }

    /// In-order iteration.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL {
            stack.push(cur);
            cur = self.node(cur).left;
        }
        Iter { tree: self, stack }
    }

    /// Entries with keys in `[lo, hi)`, in key order: one lower-bound
    /// descent to the first key ≥ `lo`, then in-order successors through
    /// the parent links — O(log n + k), however many keys sort below `lo`.
    pub fn range(&self, lo: &K, hi: K) -> Range<'_, K, V> {
        let mut cur = self.root;
        let mut first = NIL;
        while cur != NIL {
            if self.node(cur).key < *lo {
                cur = self.node(cur).right;
            } else {
                first = cur;
                cur = self.node(cur).left;
            }
        }
        Range {
            tree: self,
            cur: first,
            hi,
        }
    }

    /// In-order successor of node `i` (`NIL` past the maximum).
    fn successor(&self, i: u32) -> u32 {
        let right = self.node(i).right;
        if right != NIL {
            return self.minimum(right);
        }
        let mut child = i;
        let mut up = self.node(i).parent;
        while up != NIL && self.node(up).right == child {
            child = up;
            up = self.node(up).parent;
        }
        up
    }

    /// Validate red/black invariants (test support): root black, no red
    /// with red child, equal black height on all paths, BST order, and
    /// every child's parent link naming its parent ([`RbTree::range`]
    /// climbs them).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.root != NIL && self.node(self.root).color != Color::Black {
            return Err("root is not black".into());
        }
        if self.root != NIL && self.node(self.root).parent != NIL {
            return Err("root has a parent".into());
        }
        fn walk<K: Ord, V>(
            t: &RbTree<K, V>,
            i: u32,
            min: Option<&K>,
            max: Option<&K>,
        ) -> Result<usize, String> {
            if i == NIL {
                return Ok(1);
            }
            let n = t.node(i);
            if let Some(m) = min {
                if n.key <= *m {
                    return Err("BST order violated (min)".into());
                }
            }
            if let Some(m) = max {
                if n.key >= *m {
                    return Err("BST order violated (max)".into());
                }
            }
            if n.color == Color::Red
                && (t.color(n.left) == Color::Red || t.color(n.right) == Color::Red)
            {
                return Err("red node with red child".into());
            }
            for child in [n.left, n.right] {
                if child != NIL && t.node(child).parent != i {
                    return Err("parent link does not name the parent".into());
                }
            }
            let lh = walk(t, n.left, min, Some(&n.key))?;
            let rh = walk(t, n.right, Some(&n.key), max)?;
            if lh != rh {
                return Err("black height mismatch".into());
            }
            Ok(lh + usize::from(n.color == Color::Black))
        }
        walk(self, self.root, None, None).map(|_| ())
    }
}

/// In-order iterator over `(&K, &V)`.
pub struct Iter<'a, K, V> {
    tree: &'a RbTree<K, V>,
    stack: Vec<u32>,
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.stack.pop()?;
        let n = self.tree.node(i);
        let mut cur = n.right;
        while cur != NIL {
            self.stack.push(cur);
            cur = self.tree.node(cur).left;
        }
        Some((&n.key, n.val.as_ref().expect("live node has a value")))
    }
}

/// In-order iterator over the `(&K, &V)` of a key range; see
/// [`RbTree::range`].
pub struct Range<'a, K, V> {
    tree: &'a RbTree<K, V>,
    cur: u32,
    hi: K,
}

impl<'a, K: Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let n = self.tree.node(self.cur);
        if n.key >= self.hi {
            self.cur = NIL;
            return None;
        }
        self.cur = self.tree.successor(self.cur);
        Some((&n.key, n.val.as_ref().expect("live node has a value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_smoke() {
        let mut t = RbTree::new();
        assert!(t.is_empty());
        for i in 0..100u64 {
            assert_eq!(t.insert(i * 7 % 101, i), None);
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&7), Some(&1));
        for i in 0..50u64 {
            assert!(t.remove(&(i * 7 % 101)).is_some());
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn insert_replaces() {
        let mut t = RbTree::new();
        assert_eq!(t.insert(1u64, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.get(&1), Some(&"b"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn floor_queries() {
        let mut t = RbTree::new();
        for k in [10u64, 20, 30, 40] {
            t.insert(k, k * 10);
        }
        assert_eq!(t.floor(&5), None);
        assert_eq!(t.floor(&10).map(|(k, _)| *k), Some(10));
        assert_eq!(t.floor(&19).map(|(k, _)| *k), Some(10));
        assert_eq!(t.floor(&20).map(|(k, _)| *k), Some(20));
        assert_eq!(t.floor(&1000).map(|(k, _)| *k), Some(40));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut t = RbTree::new();
        for k in [5u64, 3, 9, 1, 7, 2, 8, 4, 6, 0] {
            t.insert(k, ());
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn range_is_half_open() {
        let mut t = RbTree::new();
        for k in (0..40u64).step_by(2) {
            t.insert(k, ());
        }
        let keys = |lo: u64, hi: u64| t.range(&lo, hi).map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(keys(10, 18), vec![10, 12, 14, 16]);
        assert_eq!(keys(9, 13), vec![10, 12], "bounds between keys");
        assert_eq!(keys(0, 1), vec![0]);
        assert_eq!(keys(36, u64::MAX), vec![36, 38], "runs off the maximum");
        assert_eq!(keys(12, 12), Vec::<u64>::new());
        assert_eq!(keys(20, 4), Vec::<u64>::new(), "inverted range is empty");
        assert_eq!(keys(39, 100), Vec::<u64>::new());
    }

    proptest! {
        /// Tree behaves exactly like BTreeMap under random workloads, and
        /// invariants hold throughout.
        #[test]
        fn behaves_like_btreemap(ops in proptest::collection::vec(
            (0u8..3, 0u64..64, 0u64..1000), 1..200)) {
            let mut t: RbTree<u64, u64> = RbTree::new();
            let mut m: BTreeMap<u64, u64> = BTreeMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(t.insert(k, v), m.insert(k, v));
                    }
                    1 => {
                        prop_assert_eq!(t.remove(&k), m.remove(&k));
                    }
                    _ => {
                        prop_assert_eq!(t.get(&k), m.get(&k));
                        let floor_t = t.floor(&k).map(|(kk, vv)| (*kk, *vv));
                        let floor_m = m.range(..=k).next_back().map(|(kk, vv)| (*kk, *vv));
                        prop_assert_eq!(floor_t, floor_m);
                        // `v` doubles as the range's width here.
                        let hi = k + v % 24;
                        let range_t: Vec<(u64, u64)> = t.range(&k, hi).map(|(kk, vv)| (*kk, *vv)).collect();
                        let range_m: Vec<(u64, u64)> = m.range(k..hi).map(|(kk, vv)| (*kk, *vv)).collect();
                        prop_assert_eq!(range_t, range_m);
                    }
                }
                t.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert_eq!(t.len(), m.len());
            }
            let tv: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
            let mv: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(tv, mv);
        }
    }
}
