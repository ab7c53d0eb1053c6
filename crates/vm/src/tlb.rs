//! Set-associative TLB simulation for the traditional baseline (Figure 2).
//!
//! Two levels, modeled after the paper's feasibility measurements: a small
//! L1 DTLB (64-entry 4-way on modern Intel) backed by an STLB (1536-entry),
//! with a radix pagewalk on a full miss.

use crate::capsule::{capsule_fields, put_seq, Capsule, Dec};

/// One set-associative TLB level with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// `nsets × assoc` `(vpn, last-use stamp)` slots, set after set. A
    /// set's entries are the leading slots of its stripe whose stamp is
    /// not 0 (a stamp in use is at least 1). Empty until the first
    /// `insert`: a CARAT tenant never translates and so never pays for
    /// its TLBs. A boxed slice rather than a `Vec` so that `TenantState`,
    /// and with it the fleet's per-tenant footprint, keeps its size.
    slots: Box<[(u64, u64)]>,
    nsets: usize,
    assoc: usize,
    stamp: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl Tlb {
    /// A TLB with `entries` total entries and `assoc`-way sets.
    pub fn new(entries: usize, assoc: usize) -> Tlb {
        Tlb {
            slots: Box::default(),
            nsets: (entries / assoc).max(1),
            assoc,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Where the stripe of `vpn`'s set starts in `slots`.
    fn stripe_of(&self, vpn: u64) -> usize {
        (vpn as usize) % self.nsets * self.assoc
    }

    /// Look up `vpn`; updates hit/miss counters and LRU state.
    pub fn lookup(&mut self, vpn: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let at = self.stripe_of(vpn);
        // No stripe before the first insert.
        let stripe = self.slots.get_mut(at..at + self.assoc).unwrap_or_default();
        let mut entries = stripe.iter_mut().take_while(|e| e.1 != 0);
        if let Some(e) = entries.find(|e| e.0 == vpn) {
            e.1 = stamp;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Install `vpn`, evicting the LRU entry of its set if full.
    pub fn insert(&mut self, vpn: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        if self.slots.is_empty() {
            self.slots = vec![(0, 0); self.nsets * self.assoc].into_boxed_slice();
        }
        let at = self.stripe_of(vpn);
        let stripe = &mut self.slots[at..at + self.assoc];
        let mut lru = 0;
        for i in 0..stripe.len() {
            if stripe[i].1 == 0 {
                // Every entry of the set came before this free slot.
                stripe[i] = (vpn, stamp);
                return;
            }
            if stripe[i].0 == vpn {
                stripe[i].1 = stamp;
                return;
            }
            if stripe[i].1 < stripe[lru].1 {
                lru = i;
            }
        }
        // Full: the last entry takes the LRU's slot (the first of the
        // oldest stamps) and the newcomer goes last.
        let last = stripe.len() - 1;
        stripe[lru] = stripe[last];
        stripe[last] = (vpn, stamp);
    }

    /// Drop every entry (TLB shootdown).
    pub fn flush(&mut self) {
        self.slots.fill((0, 0));
    }

    /// Every set's entries, set after set.
    fn sets(&self) -> impl ExactSizeIterator<Item = &[(u64, u64)]> {
        (0..self.nsets).map(|s| {
            let stripe = self.slots.get(s * self.assoc..).unwrap_or_default();
            let n = stripe.iter().take(self.assoc).take_while(|e| e.1 != 0);
            &stripe[..n.count()]
        })
    }
}

/// Each set's fill count and entries (not its empty slots), then the
/// associativity, the LRU stamp and the hit and miss counts. `take`
/// refuses a view no `Tlb` produces: no sets, a set over `assoc`
/// entries, an entry stamped 0, or more than [`MAX_RESTORED_SLOTS`]
/// slots.
impl Capsule for Tlb {
    fn put(&self, out: &mut Vec<u8>) {
        self.nsets.put(out);
        for set in self.sets() {
            put_seq(set, out);
        }
        self.assoc.put(out);
        self.stamp.put(out);
        self.hits.put(out);
        self.misses.put(out);
    }
    fn take(d: &mut Dec) -> Option<Tlb> {
        // Each set is at least its fill count.
        let nsets = d.len::<u64>()?;
        let mut fill = Vec::with_capacity(nsets);
        let mut entries = Vec::new();
        for _ in 0..nsets {
            let n = d.len::<(u64, u64)>()?;
            fill.push(n);
            for _ in 0..n {
                entries.push(d.read::<(u64, u64)>()?);
            }
        }
        let mut tlb = Tlb {
            slots: Box::default(),
            nsets,
            assoc: d.read()?,
            stamp: d.read()?,
            hits: d.read()?,
            misses: d.read()?,
        };
        let nslots = nsets
            .checked_mul(tlb.assoc)
            .filter(|&n| n > 0 && n <= MAX_RESTORED_SLOTS)?;
        if fill.iter().any(|&n| n > tlb.assoc) || entries.iter().any(|e| e.1 == 0) {
            return None;
        }
        if !entries.is_empty() {
            tlb.slots = vec![(0, 0); nslots].into_boxed_slice();
            let mut rest = &entries[..];
            for (stripe, &n) in tlb.slots.chunks_exact_mut(tlb.assoc).zip(&fill) {
                let (set, tail) = rest.split_at(n);
                stripe[..n].copy_from_slice(set);
                rest = tail;
            }
        }
        Some(tlb)
    }
}

/// The most slots a decoded [`Tlb`] allocates for: the capsule's
/// associativity is input, and real second-level TLBs hold a few thousand.
const MAX_RESTORED_SLOTS: usize = 1 << 20;

/// Which level of the translation path answered an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answered {
    /// The L1 DTLB hit.
    Dtlb,
    /// The DTLB missed and the STLB hit.
    Stlb,
    /// Both missed: the page table was walked.
    Walk,
}

impl Answered {
    /// Cycles beyond the L1 hit path (0 for a DTLB hit).
    pub fn extra_cycles(self, cost: &carat_runtime::CostModel) -> u64 {
        match self {
            Answered::Dtlb => 0,
            Answered::Stlb => cost.stlb_hit,
            Answered::Walk => cost.stlb_hit + cost.pagewalk,
        }
    }
}

/// The two-level translation structure plus pagewalk counters.
#[derive(Debug, Clone)]
pub struct TranslationUnit {
    /// L1 DTLB.
    pub dtlb: Tlb,
    /// Second-level TLB.
    pub stlb: Tlb,
    /// Pagewalks performed (both TLBs missed).
    pub pagewalks: u64,
}

impl TranslationUnit {
    /// Build from the cost model's sizes.
    pub fn new(cost: &carat_runtime::CostModel) -> TranslationUnit {
        TranslationUnit {
            dtlb: Tlb::new(cost.dtlb_entries, cost.dtlb_assoc),
            stlb: Tlb::new(cost.stlb_entries, cost.stlb_assoc),
            pagewalks: 0,
        }
    }

    /// Look `vpn` up and report which level answered. Only a walk
    /// inserts an entry, and nothing unmaps a page, so a DTLB or STLB
    /// hit is always to a page that is already mapped: the caller reads
    /// the page table, and demand-maps, only on [`Answered::Walk`].
    pub fn access(&mut self, vpn: u64) -> Answered {
        if self.dtlb.lookup(vpn) {
            return Answered::Dtlb;
        }
        if self.stlb.lookup(vpn) {
            self.dtlb.insert(vpn);
            return Answered::Stlb;
        }
        self.pagewalks += 1;
        self.stlb.insert(vpn);
        self.dtlb.insert(vpn);
        Answered::Walk
    }

    /// DTLB misses per 1000 instructions (Figure 2's metric).
    pub fn dtlb_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.dtlb.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

capsule_fields!(TranslationUnit {
    dtlb,
    stlb,
    pagewalks,
});

#[cfg(test)]
mod tests {
    use super::*;
    use carat_runtime::CostModel;

    #[test]
    fn repeated_access_hits() {
        let mut t = Tlb::new(64, 4);
        assert!(!t.lookup(5));
        t.insert(5);
        assert!(t.lookup(5));
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        // 4 entries, 4-way => a single set.
        let mut t = Tlb::new(4, 4);
        for vpn in 0..4 {
            t.insert(vpn);
        }
        assert!(t.lookup(0)); // 0 refreshed; 1 is now LRU
        t.insert(10);
        assert!(t.lookup(0), "recently used survives");
        assert!(!t.lookup(1), "LRU evicted");
    }

    #[test]
    fn flush_clears() {
        let mut t = Tlb::new(16, 4);
        t.insert(1);
        t.flush();
        assert!(!t.lookup(1));
    }

    #[test]
    fn allocates_on_first_insert_only() {
        let mut t = Tlb::new(1536, 12);
        assert!(!t.lookup(7));
        t.flush();
        assert!(t.slots.is_empty());
        assert_eq!(t.sets().len(), 128);
        assert!(t.sets().all(|set| set.is_empty()));
        t.insert(7);
        assert_eq!(t.slots.len(), 1536);
        assert!(t.lookup(7));
    }

    /// The flat sets hold what the nested `Vec`s they replaced held, in
    /// the same order: evict by `swap_remove` of the first oldest stamp,
    /// install by `push`. The capsule serializes that order.
    #[test]
    fn in_set_order_matches_swap_remove_and_push() {
        let (nsets, assoc) = (2usize, 3usize);
        let mut t = Tlb::new(nsets * assoc, assoc);
        let mut model: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nsets];
        let mut stamp = 0u64;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let vpn = x % 11;
            stamp += 1;
            let set = &mut model[vpn as usize % nsets];
            let hit = set.iter_mut().find(|e| e.0 == vpn);
            if step % 3 == 0 {
                assert_eq!(t.lookup(vpn), hit.is_some());
                if let Some(e) = hit {
                    e.1 = stamp;
                }
            } else {
                t.insert(vpn);
                if let Some(e) = hit {
                    e.1 = stamp;
                } else {
                    if set.len() >= assoc {
                        let lru = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
                        set.swap_remove(lru);
                    }
                    set.push((vpn, stamp));
                }
            }
            assert!(t.sets().eq(model.iter().map(Vec::as_slice)), "step {step}");
        }
    }

    /// The capsule bytes of a TLB view: `fill[s]` entries for set `s`,
    /// taken in order from `entries` (as many as remain).
    fn view(fill: &[usize], entries: &[(u64, u64)], assoc: usize, stamp: u64) -> Vec<u8> {
        let mut out = Vec::new();
        fill.len().put(&mut out);
        let mut rest = entries;
        for &n in fill {
            n.put(&mut out);
            let (set, tail) = rest.split_at(n.min(rest.len()));
            set.iter().for_each(|e| e.put(&mut out));
            rest = tail;
        }
        for v in [assoc as u64, stamp, 0, 0] {
            v.put(&mut out);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<Tlb> {
        crate::capsule::take_whole(bytes)
    }

    #[test]
    fn capsule_round_trips_and_rejects_impossible_views() {
        let mut t = Tlb::new(8, 2);
        for vpn in [1, 5, 9, 2] {
            t.insert(vpn);
        }
        let mut bytes = Vec::new();
        t.put(&mut bytes);
        let sets: Vec<&[(u64, u64)]> = t.sets().collect();
        let fill: Vec<usize> = sets.iter().map(|s| s.len()).collect();
        assert_eq!(view(&fill, &sets.concat(), t.assoc, t.stamp), bytes);
        let r = decode(&bytes).unwrap();
        assert!(r.sets().eq(t.sets()));
        assert_eq!(r.stamp, t.stamp);

        let empty = decode(&view(&[0; 4], &[], 2, 0)).unwrap();
        assert!(empty.slots.is_empty());
        assert!(decode(&view(&[], &[], 2, 0)).is_none());
        assert!(decode(&view(&[0; 4], &[], 0, 0)).is_none());
        assert!(decode(&view(&[3, 0], &[(1, 1); 3], 2, 0)).is_none());
        assert!(decode(&view(&[1, 1], &[(1, 1)], 2, 0)).is_none());
        assert!(decode(&view(&[1, 0], &[(1, 0)], 2, 0)).is_none());
        assert!(decode(&view(&[0; 4], &[], usize::MAX, 0)).is_none());
    }

    #[test]
    fn translation_unit_cost_path() {
        let cost = CostModel::default();
        let mut tu = TranslationUnit::new(&cost);
        // Cold: full walk.
        assert_eq!(tu.access(42), Answered::Walk);
        assert_eq!(
            Answered::Walk.extra_cycles(&cost),
            cost.stlb_hit + cost.pagewalk
        );
        assert_eq!(tu.pagewalks, 1);
        // Warm: free.
        assert_eq!(tu.access(42), Answered::Dtlb);
        assert_eq!(Answered::Dtlb.extra_cycles(&cost), 0);
        // Thrash the DTLB only: 100 pages are past DTLB reach and within
        // STLB reach.
        for v in 0..100 {
            tu.access(v);
        }
        assert_eq!(tu.access(0), Answered::Stlb);
        assert_eq!(Answered::Stlb.extra_cycles(&cost), cost.stlb_hit);
        assert_eq!(tu.pagewalks, 100, "only a miss in both levels walks");
    }

    #[test]
    fn mpki_metric() {
        let cost = CostModel::default();
        let mut tu = TranslationUnit::new(&cost);
        for v in 0..100 {
            tu.access(v); // all DTLB misses
        }
        assert!((tu.dtlb_mpki(100_000) - 1.0).abs() < 1e-9);
        assert_eq!(tu.dtlb_mpki(0), 0.0);
    }

    #[test]
    fn streaming_vs_resident_miss_rates() {
        let cost = CostModel::default();
        // Resident: 32 pages fit in the DTLB.
        let mut resident = TranslationUnit::new(&cost);
        for i in 0..10_000u64 {
            resident.access(i % 32);
        }
        // Streaming: new page every access.
        let mut streaming = TranslationUnit::new(&cost);
        for i in 0..10_000u64 {
            streaming.access(i);
        }
        assert!(resident.dtlb.misses * 10 < streaming.dtlb.misses);
    }
}
