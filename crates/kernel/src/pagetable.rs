//! Four-level radix page table — the traditional model's mapping structure
//! (paper §2.1: "current systems represent mappings as radix trees").
//!
//! Used only by the *baseline* (paging) configuration; the CARAT
//! configuration has no page table at all.

/// Page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical page number.
    pub ppn: u64,
    /// Writable.
    pub writable: bool,
}

/// x64-style 4-level radix table, 9 bits per level, 4KiB pages.
#[derive(Debug, Default)]
pub struct PageTable {
    root: Node,
    /// Live (valid) mappings.
    pub mapped: u64,
}

#[derive(Debug, Default)]
struct Node {
    children: carat_runtime::FastMap<u16, Box<Node>>,
    entries: carat_runtime::FastMap<u16, Pte>,
}

const LEVEL_BITS: u64 = 9;
const LEVEL_MASK: u64 = (1 << LEVEL_BITS) - 1;

fn indices(vpn: u64) -> [u16; 4] {
    [
        ((vpn >> (3 * LEVEL_BITS)) & LEVEL_MASK) as u16,
        ((vpn >> (2 * LEVEL_BITS)) & LEVEL_MASK) as u16,
        ((vpn >> LEVEL_BITS) & LEVEL_MASK) as u16,
        (vpn & LEVEL_MASK) as u16,
    ]
}

impl PageTable {
    /// Empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Map `vpn -> pte`, replacing any prior mapping.
    pub fn map(&mut self, vpn: u64, pte: Pte) -> Option<Pte> {
        let [i0, i1, i2, i3] = indices(vpn);
        let mut node = &mut self.root;
        for i in [i0, i1, i2] {
            node = node.children.entry(i).or_default();
        }
        let prev = node.entries.insert(i3, pte);
        if prev.is_none() {
            self.mapped += 1;
        }
        prev
    }

    /// Walk the radix tree for `vpn`: its PTE, if mapped. A TLB caches
    /// the answer, so nothing unmaps a page: an entry removed here
    /// would outlive its mapping in every TLB that holds it.
    pub fn translate(&self, vpn: u64) -> Option<Pte> {
        let [i0, i1, i2, i3] = indices(vpn);
        let mut node = &self.root;
        for i in [i0, i1, i2] {
            node = node.children.get(&i)?;
        }
        node.entries.get(&i3).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_then_translate() {
        let mut pt = PageTable::new();
        assert_eq!(pt.translate(5), None);
        pt.map(
            5,
            Pte {
                ppn: 1234,
                writable: true,
            },
        );
        assert_eq!(pt.mapped, 1);
        assert_eq!(pt.translate(5).map(|p| p.ppn), Some(1234));
        assert_eq!(pt.translate(4), None, "a neighbour in the same leaf");
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let mut pt = PageTable::new();
        let a = 0u64;
        let b = 1u64 << 27; // differs in the top-level index
        pt.map(
            a,
            Pte {
                ppn: 1,
                writable: false,
            },
        );
        pt.map(
            b,
            Pte {
                ppn: 2,
                writable: false,
            },
        );
        assert_eq!(pt.translate(a).map(|p| p.ppn), Some(1));
        assert_eq!(pt.translate(b).map(|p| p.ppn), Some(2));
        // An unmapped page sharing no prefix is not found.
        assert_eq!(pt.translate(2u64 << 27), None);
    }

    #[test]
    fn remap_replaces() {
        let mut pt = PageTable::new();
        pt.map(
            7,
            Pte {
                ppn: 1,
                writable: false,
            },
        );
        let prev = pt.map(
            7,
            Pte {
                ppn: 9,
                writable: true,
            },
        );
        assert_eq!(prev.map(|p| p.ppn), Some(1));
        assert_eq!(pt.mapped, 1);
        assert_eq!(pt.translate(7).map(|p| p.ppn), Some(9));
    }

    #[test]
    fn dense_mapping_count() {
        let mut pt = PageTable::new();
        for vpn in 0..1000 {
            pt.map(
                vpn,
                Pte {
                    ppn: vpn + 5000,
                    writable: true,
                },
            );
        }
        assert_eq!(pt.mapped, 1000);
        for vpn in (0..1000).step_by(2) {
            pt.map(
                vpn,
                Pte {
                    ppn: vpn,
                    writable: false,
                },
            );
        }
        assert_eq!(pt.mapped, 1000, "a remap adds no mapping");
    }
}
