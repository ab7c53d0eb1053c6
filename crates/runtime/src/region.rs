//! Kernel-supplied regions and the guard evaluators (paper §3, §4.2).
//!
//! The kernel writes an ordered array of `(start, len, perms)` regions into
//! the runtime's landing zone; a guard checks a prospective access against
//! it. Three implementations, matching the paper's comparisons:
//!
//! * [`RegionTable::check_binary_search`] — basic binary search;
//! * [`RegionTable::check_if_tree`] — a statically laid out search tree
//!   (implicit Eytzinger layout, the array analogue of compiled if-trees);
//! * [`RegionTable::check_mpx`] — single bounds-register check, valid only
//!   when one region covers the process ("dark capsule" layout).

/// Access permissions for a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
}

impl Perms {
    /// Read-only.
    pub const R: Perms = Perms {
        read: true,
        write: false,
    };
    /// Read+write.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
    };

    /// Whether these permissions allow `access`.
    pub fn allows(&self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
        }
    }
}

/// The kind of access a guard validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Load.
    Read,
    /// Store (implies the region must be writable).
    Write,
}

/// One contiguous run of physical addresses with uniform permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
    /// Permissions.
    pub perms: Perms,
}

impl Region {
    /// Exclusive end address.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether `[addr, addr+len)` lies fully inside this region.
    pub fn covers(&self, addr: u64, len: u64) -> bool {
        addr >= self.start && addr.saturating_add(len) <= self.end()
    }
}

/// Result of a guard check, carrying the probe count for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardCheck {
    /// Whether the access is allowed.
    pub ok: bool,
    /// Probe steps taken (compare/branch pairs in the software guards).
    pub probes: u64,
}

/// Guard mechanism selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardImpl {
    /// Basic binary search over the sorted region array.
    BinarySearch,
    /// Statically laid out search ("if-tree"), Eytzinger order.
    #[default]
    IfTree,
    /// Intel-MPX-style single bounds register (single region only;
    /// falls back to the if-tree when there are multiple regions).
    Mpx,
}

/// The ordered region array plus its Eytzinger-layout mirror.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    sorted: Vec<Region>,
    /// Eytzinger (BFS) layout of `sorted` for the if-tree guard.
    eytz: Vec<Region>,
    /// Maps eytzinger position -> sorted index, to locate neighbors.
    eytz_sorted_idx: Vec<usize>,
    /// Generation counter: bumped on every change so runtimes can detect
    /// stale caches after a kernel region change.
    pub generation: u64,
}

impl RegionTable {
    /// Empty table (no access allowed).
    pub fn new() -> RegionTable {
        RegionTable::default()
    }

    /// Replace the region set. Regions must be non-overlapping; they are
    /// sorted by start address here.
    pub fn set_regions(&mut self, mut regions: Vec<Region>) {
        regions.sort_by_key(|r| r.start);
        debug_assert!(
            regions.windows(2).all(|w| w[0].end() <= w[1].start),
            "regions must not overlap"
        );
        self.eytz = vec![
            Region {
                start: 0,
                len: 0,
                perms: Perms::R
            };
            regions.len()
        ];
        self.eytz_sorted_idx = vec![0; regions.len()];
        if !regions.is_empty() {
            let mut pos = 0usize;
            build_eytz(
                &regions,
                &mut self.eytz,
                &mut self.eytz_sorted_idx,
                0,
                &mut pos,
            );
        }
        self.sorted = regions;
        self.generation += 1;
    }

    /// Edit the region set in place: `f` is handed the current list and
    /// what it leaves behind is installed as by
    /// [`RegionTable::set_regions`] — one sort, one layout rebuild, one
    /// generation bump, however many regions `f` touched.
    pub fn edit(&mut self, f: impl FnOnce(&mut Vec<Region>)) {
        let mut regions = std::mem::take(&mut self.sorted);
        f(&mut regions);
        self.set_regions(regions);
    }

    /// Current regions, sorted by start.
    pub fn regions(&self) -> &[Region] {
        &self.sorted
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The region containing `addr`, if any. Binary search over the
    /// sorted array; used to seed last-hit guard caches with the region's
    /// bounds (pair it with [`RegionTable::generation`] to detect stale
    /// entries).
    pub fn containing(&self, addr: u64) -> Option<&Region> {
        let i = self.sorted.partition_point(|r| r.end() <= addr);
        self.sorted.get(i).filter(|r| addr >= r.start)
    }

    /// Dispatch on the configured guard implementation.
    pub fn check(&self, imp: GuardImpl, addr: u64, len: u64, access: Access) -> GuardCheck {
        match imp {
            GuardImpl::BinarySearch => self.check_binary_search(addr, len, access),
            GuardImpl::IfTree => self.check_if_tree(addr, len, access),
            GuardImpl::Mpx => self.check_mpx(addr, len, access),
        }
    }

    /// Basic binary search over the sorted array.
    pub fn check_binary_search(&self, addr: u64, len: u64, access: Access) -> GuardCheck {
        let mut lo = 0usize;
        let mut hi = self.sorted.len();
        let mut probes = 0;
        while lo < hi {
            probes += 1;
            let mid = (lo + hi) / 2;
            let r = &self.sorted[mid];
            if addr < r.start {
                hi = mid;
            } else if addr >= r.end() {
                lo = mid + 1;
            } else {
                return GuardCheck {
                    ok: r.covers(addr, len) && r.perms.allows(access),
                    probes,
                };
            }
        }
        GuardCheck { ok: false, probes }
    }

    /// Eytzinger-layout implicit search tree: the array analogue of a
    /// compiled if-tree (static branch layout, cache-friendly).
    pub fn check_if_tree(&self, addr: u64, len: u64, access: Access) -> GuardCheck {
        let n = self.eytz.len();
        let mut i = 0usize;
        let mut probes = 0;
        let mut candidate: Option<usize> = None;
        while i < n {
            probes += 1;
            let r = &self.eytz[i];
            if addr < r.start {
                i = 2 * i + 1;
            } else {
                candidate = Some(i);
                i = 2 * i + 2;
            }
        }
        match candidate {
            Some(i) => {
                let r = &self.eytz[i];
                GuardCheck {
                    ok: r.covers(addr, len) && r.perms.allows(access),
                    probes,
                }
            }
            None => GuardCheck { ok: false, probes },
        }
    }

    /// MPX-style single bounds register: constant-time when a single
    /// region covers the process.
    pub fn check_mpx(&self, addr: u64, len: u64, access: Access) -> GuardCheck {
        if self.sorted.len() == 1 {
            let r = &self.sorted[0];
            GuardCheck {
                ok: r.covers(addr, len) && r.perms.allows(access),
                probes: 1,
            }
        } else {
            // Hardware bounds registers hold one range; multi-region
            // processes fall back to the software tree.
            self.check_if_tree(addr, len, access)
        }
    }

    /// Check a full `[lo, hi)` range (merged range guards): every byte
    /// must be inside valid regions with the needed permission, allowing
    /// the range to span adjacent regions.
    pub fn check_range(&self, lo: u64, hi: u64, access: Access) -> GuardCheck {
        if hi <= lo {
            // Empty range (e.g. zero-trip loop): trivially fine.
            return GuardCheck {
                ok: true,
                probes: 1,
            };
        }
        let mut cursor = lo;
        let mut probes = 0;
        while cursor < hi {
            let c = self.check_binary_search(cursor, 1, access);
            probes += c.probes;
            // A passing check found the region containing `cursor`:
            // advance to its end.
            match self.containing(cursor) {
                Some(r) if c.ok => cursor = r.end(),
                _ => return GuardCheck { ok: false, probes },
            }
        }
        GuardCheck { ok: true, probes }
    }
}

fn build_eytz(
    sorted: &[Region],
    eytz: &mut [Region],
    idx: &mut [usize],
    k: usize,
    pos: &mut usize,
) {
    if k >= sorted.len() {
        return;
    }
    build_eytz(sorted, eytz, idx, 2 * k + 1, pos);
    eytz[k] = sorted[*pos];
    idx[k] = *pos;
    *pos += 1;
    build_eytz(sorted, eytz, idx, 2 * k + 2, pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(n: u64) -> RegionTable {
        // n regions of 0x1000 bytes with 0x1000 gaps: [0x10000, 0x11000) rw,
        // [0x12000, 0x13000) rw, ...
        let mut t = RegionTable::new();
        t.set_regions(
            (0..n)
                .map(|i| Region {
                    start: 0x10000 + i * 0x2000,
                    len: 0x1000,
                    perms: if i % 4 == 3 { Perms::R } else { Perms::RW },
                })
                .collect(),
        );
        t
    }

    #[test]
    fn hit_miss_and_permissions() {
        let t = table(8);
        for imp in [GuardImpl::BinarySearch, GuardImpl::IfTree, GuardImpl::Mpx] {
            assert!(t.check(imp, 0x10000, 8, Access::Read).ok, "{imp:?}");
            assert!(t.check(imp, 0x10ff8, 8, Access::Write).ok);
            assert!(!t.check(imp, 0x10ff9, 8, Access::Read).ok, "straddles end");
            assert!(!t.check(imp, 0x11000, 8, Access::Read).ok, "gap");
            assert!(!t.check(imp, 0x0, 8, Access::Read).ok);
            // Region 3 (start 0x16000) is read-only.
            assert!(t.check(imp, 0x16000, 8, Access::Read).ok);
            assert!(!t.check(imp, 0x16000, 8, Access::Write).ok);
        }
    }

    #[test]
    fn mpx_is_single_probe_for_single_region() {
        let t = table(1);
        let c = t.check_mpx(0x10008, 8, Access::Read);
        assert!(c.ok);
        assert_eq!(c.probes, 1);
    }

    #[test]
    fn probe_counts_grow_logarithmically() {
        let t16 = table(16);
        let t4096 = table(4096);
        let p16 = t16.check_binary_search(0x10000, 8, Access::Read).probes;
        let p4096 = t4096.check_binary_search(0x10000, 8, Access::Read).probes;
        assert!(p4096 <= p16 + 9, "log growth: {p16} -> {p4096}");
        assert!(p4096 > p16);
        let q = t4096.check_if_tree(0x10000, 8, Access::Read).probes;
        assert!(q <= 13, "if-tree probes bounded by depth: {q}");
    }

    #[test]
    fn range_check_spans_adjacent_regions() {
        let mut t = RegionTable::new();
        t.set_regions(vec![
            Region {
                start: 0x1000,
                len: 0x1000,
                perms: Perms::RW,
            },
            Region {
                start: 0x2000,
                len: 0x1000,
                perms: Perms::RW,
            },
        ]);
        assert!(t.check_range(0x1800, 0x2800, Access::Write).ok);
        assert!(!t.check_range(0x1800, 0x3001, Access::Write).ok);
        assert!(t.check_range(0x9000, 0x9000, Access::Read).ok, "empty");
    }

    /// Three adjacent regions, the last read-only: a range charges the
    /// binary-search probes of each region it enters, and stops at the
    /// first one that refuses the access.
    #[test]
    fn range_check_charges_each_region_it_enters() {
        let mut t = RegionTable::new();
        t.set_regions(
            (0..3)
                .map(|i| Region {
                    start: 0x1000 * (i + 1),
                    len: 0x1000,
                    perms: if i == 2 { Perms::R } else { Perms::RW },
                })
                .collect(),
        );
        let c = |lo, hi, access| {
            let c = t.check_range(lo, hi, access);
            (c.ok, c.probes)
        };
        assert_eq!(c(0x1800, 0x1900, Access::Write), (true, 2));
        assert_eq!(c(0x1800, 0x2800, Access::Write), (true, 3));
        assert_eq!(c(0x1000, 0x4000, Access::Read), (true, 5));
        assert_eq!(c(0x1800, 0x3800, Access::Write), (false, 5));
        assert_eq!(c(0x1800, 0x4001, Access::Read), (false, 7));
        assert_eq!(c(0x800, 0x1800, Access::Read), (false, 2));
    }

    #[test]
    fn containing_finds_exactly_the_covering_region() {
        let t = table(8);
        assert_eq!(t.containing(0x10000).map(|r| r.start), Some(0x10000));
        assert_eq!(t.containing(0x10fff).map(|r| r.start), Some(0x10000));
        assert!(t.containing(0x11000).is_none(), "exclusive end");
        assert!(t.containing(0x0).is_none(), "below all regions");
        assert_eq!(t.containing(0x16008).map(|r| r.start), Some(0x16000));
        assert!(t.containing(0x20000).is_none(), "above all regions");
    }

    #[test]
    fn generation_bumps_on_change() {
        let mut t = table(2);
        let g = t.generation;
        t.set_regions(vec![]);
        assert_eq!(t.generation, g + 1);
        assert!(!t.check_if_tree(0x10000, 8, Access::Read).ok);
    }

    proptest! {
        /// All three guard implementations agree on every query.
        #[test]
        fn implementations_agree(
            n in 1u64..64,
            addr in 0u64..0x50000,
            len in 1u64..64,
            write in proptest::bool::ANY,
        ) {
            let t = table(n);
            let access = if write { Access::Write } else { Access::Read };
            let a = t.check_binary_search(addr, len, access).ok;
            let b = t.check_if_tree(addr, len, access).ok;
            let c = t.check_mpx(addr, len, access).ok;
            prop_assert_eq!(a, b);
            prop_assert_eq!(b, c);
        }
    }
}
