//! Compact forwarding information bases.
//!
//! A device's FIB "is a table, where each entry associates a
//! destination prefix to a set of next hop addresses" (§2.2). FIBs in
//! a hyperscale DC hold thousands of prefixes and next-hop sets repeat
//! massively (every specific route on a ToR shares the same leaf set),
//! so entries store an index into a per-FIB pool of interned next-hop
//! sets — this is what keeps the 10⁴-router experiment within memory.

use dctopo::DeviceId;
use netprim::wire::{canonical_order, DeltaRule, FibDelta, TableHasher, WireSnapshot};
pub use netprim::wire::{FibPatch, PatchOp};
use netprim::{HopSet, Ipv4, ParseError, Prefix};
use std::collections::HashMap;

/// One FIB entry: destination prefix plus interned next-hop set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Index into the owning [`Fib`]'s next-hop-set pool.
    pub set: u32,
    /// Locally originated (the device's own hosted prefix): packets
    /// are delivered below, not forwarded.
    pub local: bool,
}

/// A device's forwarding table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fib {
    device: DeviceId,
    entries: Vec<FibEntry>,
    sets: Vec<Vec<Ipv4>>,
}

/// Incremental FIB construction with next-hop-set interning.
pub struct FibBuilder {
    device: DeviceId,
    entries: Vec<FibEntry>,
    sets: Vec<Vec<Ipv4>>,
    interner: HashMap<Vec<Ipv4>, u32>,
    /// Fast-path interner keyed by [`HopSet`] bitmask. Valid only
    /// relative to the single neighbor table this builder's
    /// [`push_bits`](Self::push_bits) calls share (one device, one
    /// table), which is why it is keyed on the mask alone.
    set_interner: HashMap<HopSet, u32>,
    /// The previous [`intern_bits`](Self::intern_bits) result. The
    /// simulator emits one entry per prefix per device, and on a Clos
    /// almost every consecutive prefix resolves to the same ECMP set
    /// (a ToR reaches every remote /24 through the same leaves), so
    /// this one-entry memo turns the common probe into a 64-byte
    /// compare with no hashing at all.
    last_bits: Option<(HopSet, u32)>,
}

impl FibBuilder {
    /// Start a FIB for a device.
    pub fn new(device: DeviceId) -> Self {
        FibBuilder {
            device,
            entries: Vec::new(),
            sets: Vec::new(),
            interner: HashMap::new(),
            set_interner: HashMap::new(),
            last_bits: None,
        }
    }

    /// Intern a next-hop set (sorted and deduplicated for canonical
    /// comparison — a FIB entry's next hops are a *set*, and repeating
    /// an address must not change how any engine judges the entry).
    pub fn intern(&mut self, mut hops: Vec<Ipv4>) -> u32 {
        hops.sort_unstable();
        hops.dedup();
        if let Some(&id) = self.interner.get(&hops) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(hops.clone());
        self.interner.insert(hops, id);
        id
    }

    /// Intern a next-hop set given as a [`HopSet`] over `table`, the
    /// device's ascending-sorted neighbor-address table (bit `i` ↔
    /// `table[i]`). The hot path of the simulator's emit loop: a
    /// repeated mask costs one 64-byte hash probe instead of a
    /// `Vec` materialize + sort + dedup per entry. All `push_bits`/
    /// `intern_bits` calls on one builder must share one `table`.
    pub fn intern_bits(&mut self, bits: &HopSet, table: &[Ipv4]) -> u32 {
        debug_assert!(table.windows(2).all(|w| w[0] < w[1]));
        if let Some((mask, id)) = self.last_bits {
            if mask == *bits {
                return id;
            }
        }
        if let Some(&id) = self.set_interner.get(bits) {
            self.last_bits = Some((*bits, id));
            return id;
        }
        // Bits iterate ascending over a sorted duplicate-free table,
        // so the materialized vector is already canonical.
        let hops: Vec<Ipv4> = bits.iter().map(|b| table[b as usize]).collect();
        let id = match self.interner.get(&hops) {
            Some(&id) => id,
            None => {
                let id = self.sets.len() as u32;
                self.sets.push(hops.clone());
                self.interner.insert(hops, id);
                id
            }
        };
        self.set_interner.insert(*bits, id);
        self.last_bits = Some((*bits, id));
        id
    }

    /// Append an entry.
    pub fn push(&mut self, prefix: Prefix, hops: Vec<Ipv4>, local: bool) {
        let set = self.intern(hops);
        self.entries.push(FibEntry { prefix, set, local });
    }

    /// Append an entry whose next hops are a [`HopSet`] over `table`
    /// (see [`intern_bits`](Self::intern_bits)).
    pub fn push_bits(&mut self, prefix: Prefix, bits: &HopSet, table: &[Ipv4], local: bool) {
        let set = self.intern_bits(bits, table);
        self.entries.push(FibEntry { prefix, set, local });
    }

    /// Append one entry per prefix, all sharing an already-interned hop
    /// set — the id a prior [`intern`](Self::intern)/
    /// [`intern_bits`](Self::intern_bits) call on *this* builder
    /// returned. The simulator's emit loop run-length encodes each
    /// device's forwarding state over the prefix sequence and expands
    /// the runs here, so the 10⁴-builder sweep appends long streaming
    /// stretches instead of one scattered push per (prefix, device)
    /// pair. Equivalent to pushing each prefix individually in order.
    pub fn extend_run(&mut self, prefixes: &[Prefix], set: u32, local: bool) {
        debug_assert!((set as usize) < self.sets.len(), "unknown interned set id");
        self.entries
            .extend(prefixes.iter().map(|&prefix| FibEntry { prefix, set, local }));
    }

    /// Reserve room for `additional` more entries. The simulator knows
    /// each device's exact entry count before expanding its runs;
    /// reserving once avoids growth reallocations over 10⁴ builders.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Re-play another builder's pushes onto this one, preserving
    /// their push order. Parallel simulation workers each accumulate a
    /// per-device partial table over their own prefix range; absorbing
    /// the workers in range order reproduces the serial push sequence
    /// — and therefore the exact serial [`finish`](Self::finish)
    /// result, interned pool layout included.
    pub fn absorb(&mut self, other: &FibBuilder) {
        for e in &other.entries {
            self.push(e.prefix, other.sets[e.set as usize].clone(), e.local);
        }
    }

    /// Number of entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finish: entries are sorted by descending prefix length, then
    /// address — the longest-prefix-match processing order used by the
    /// verification engines (Definition 2.1).
    ///
    /// Duplicate pushes of the same prefix are collapsed to a single
    /// entry and the *last* push wins, mirroring how a router's RIB
    /// overwrites a re-advertised route. (The wire side is stricter:
    /// `Fib::from_wire` and `FibDelta::decode` reject a prefix named
    /// twice outright, because a pulled frame has no push order to
    /// break the tie with.) Collapsing here is what upholds
    /// the sorted-uniqueness invariant that `entry_for`'s binary
    /// search and `patched`'s merge walk rely on.
    pub fn finish(mut self) -> Fib {
        // The simulator pushes entries in hosted-prefix order (/24s by
        // ascending address, the default last) — already the canonical
        // order, with no duplicates. Strict sortedness implies prefix
        // uniqueness, so the O(n log n) sort and the dedup pass can
        // both be skipped after one linear scan.
        let sorted = self
            .entries
            .windows(2)
            .all(|w| canonical_order(w[0].prefix, w[1].prefix).is_lt());
        if sorted {
            return Fib {
                device: self.device,
                entries: self.entries,
                sets: self.sets,
            };
        }
        let mut indexed: Vec<(usize, FibEntry)> =
            self.entries.drain(..).enumerate().collect();
        // Sort duplicates latest-push-first, then keep the first of
        // each prefix run (dedup_by retains the earlier element).
        indexed.sort_unstable_by(|(ia, a), (ib, b)| {
            canonical_order(a.prefix, b.prefix).then(ib.cmp(ia))
        });
        indexed.dedup_by(|(_, a), (_, b)| a.prefix == b.prefix);
        Fib {
            device: self.device,
            entries: indexed.into_iter().map(|(_, e)| e).collect(),
            sets: self.sets,
        }
    }
}

impl Fib {
    /// An empty FIB (e.g. a device with the layer-2 port bug).
    pub fn empty(device: DeviceId) -> Fib {
        Fib {
            device,
            entries: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// A pool set by id: the next hops of every entry whose `set` is
    /// `id`.
    pub fn set(&self, id: u32) -> &[Ipv4] {
        &self.sets[id as usize]
    }

    /// The owning device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Entries, sorted by descending prefix length.
    pub fn entries(&self) -> &[FibEntry] {
        &self.entries
    }

    /// The next-hop addresses of an entry.
    pub fn next_hops(&self, e: &FibEntry) -> &[Ipv4] {
        &self.sets[e.set as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The default-route entry (`0.0.0.0/0`), if present.
    pub fn default_entry(&self) -> Option<&FibEntry> {
        // Sorted by descending length: the default, if any, is last.
        self.entries.last().filter(|e| e.prefix.is_default())
    }

    /// Longest-prefix-match lookup (reference semantics for tests and
    /// the global baseline checker; the production engines use tries).
    ///
    /// Entries are sorted by (descending length, address): within each
    /// length run a binary search finds the unique candidate prefix
    /// containing `ip`, so lookup is O(distinct lengths × log n)
    /// rather than O(n).
    pub fn lookup(&self, ip: Ipv4) -> Option<&FibEntry> {
        let mut i = 0;
        while i < self.entries.len() {
            let len = self.entries[i].prefix.len();
            // End of this length run.
            let run_end = i + self.entries[i..].partition_point(|e| e.prefix.len() == len);
            let run = &self.entries[i..run_end];
            let candidate = Prefix::containing(ip, len).expect("len <= 32");
            if let Ok(k) = run.binary_search_by(|e| e.prefix.addr().cmp(&candidate.addr())) {
                return Some(&run[k]);
            }
            i = run_end;
        }
        None
    }

    /// Find the entry for an exact prefix. Binary search over the
    /// sorted entry order — called once per contract by the strict
    /// engines, so it must not be linear (a 10⁴-router run issues
    /// ~10⁸ of these lookups).
    pub fn entry_for(&self, prefix: Prefix) -> Option<&FibEntry> {
        self.index_of(prefix).map(|i| &self.entries[i])
    }

    /// Where in [`entries`](Self::entries) the rule for an exact prefix
    /// sits.
    pub fn index_of(&self, prefix: Prefix) -> Option<usize> {
        self.entries
            .binary_search_by(|e| canonical_order(e.prefix, prefix))
            .ok()
    }

    /// The table's `FIB1` image, for the puller→validator transfer
    /// (§2.6.1). A table's entries are in canonical order and its hop
    /// sets strictly ascending, so the image is canonical.
    pub fn to_wire(&self) -> WireSnapshot {
        let entries = self.entries.iter().map(|e| (e.prefix, self.next_hops(e)));
        WireSnapshot::write(self.device.0, entries)
    }

    /// Decode a `FIB1` image: one pass of [`WireSnapshot::read`], so an
    /// image decodes exactly when it hashes, and the table's
    /// [`content_hash`](Self::content_hash) is the image's. The image
    /// must be canonical — entries in canonical order, each prefix once
    /// (a pull has no push order to break a tie with), next hops
    /// strictly ascending — and the error names the first entry that is
    /// not. Locality is not carried on the wire (real FIB pulls don't
    /// carry it either): an entry with no next hops is local.
    ///
    /// Hop sets are pooled in first-use order, so the table is `==`,
    /// pool layout included, to a [`FibBuilder`] fed the same entries.
    pub fn from_wire(w: &WireSnapshot) -> Result<Fib, ParseError> {
        // Entries take at least 7 bytes: a hostile count cannot reserve
        // ahead of the image.
        let mut entries = Vec::with_capacity(w.declared_entries().min(w.as_bytes().len() / 7));
        let mut sets: Vec<Vec<Ipv4>> = Vec::new();
        // Canonical hop lists are equal exactly when their bytes are.
        let mut pool: HashMap<&[u8], u32> = HashMap::new();
        // Runs of entries share a hop set; the previous one skips the
        // probe.
        let mut last: Option<(&[u8], u32)> = None;
        w.read(|e| {
            let hops = e.hop_bytes();
            let set = match last {
                Some((bytes, set)) if bytes == hops => set,
                _ => {
                    let set = *pool.entry(hops).or_insert_with(|| {
                        sets.push(e.next_hops().collect());
                        (sets.len() - 1) as u32
                    });
                    last = Some((hops, set));
                    set
                }
            };
            entries.push(FibEntry {
                prefix: e.prefix,
                set,
                local: e.is_local(),
            });
        })?;
        Ok(Fib {
            device: DeviceId(w.device()),
            entries,
            sets,
        })
    }

    /// Total number of distinct next-hop sets (compactness statistic).
    pub fn set_pool_len(&self) -> usize {
        self.sets.len()
    }

    /// Stable content hash of the table.
    ///
    /// Covers the device id and every entry (prefix, locality, next
    /// hops) in the canonical sort order, so two `Fib`s built by any
    /// route — simulation, wire decode, delta application — hash equal
    /// iff they forward identically. This is the identity the
    /// incremental pipeline keys on. The words are [`TableHasher`]'s,
    /// which a pulled image folds too: [`WireSnapshot::content_hash`]
    /// is this hash of the table the image decodes to, taken before
    /// decoding it.
    pub fn content_hash(&self) -> u64 {
        let mut h = TableHasher::new(self.device.0, self.entries.len());
        for e in &self.entries {
            h.entry(e.prefix, e.local, self.next_hops(e).iter().copied());
        }
        h.finish()
    }

    /// Compute the [`FibDelta`] turning `old` into `new`: their
    /// [`diff`](Self::diff), anchored to both tables'
    /// [`content_hash`](Self::content_hash)es.
    ///
    /// Panics when the two tables belong to different devices.
    pub fn delta(old: &Fib, new: &Fib) -> FibDelta {
        FibDelta {
            device: old.device.0,
            base_hash: old.content_hash(),
            new_hash: new.content_hash(),
            patch: Fib::diff(old, new),
        }
    }

    /// The [`FibPatch`] turning `old` into `new`: a merge walk over the
    /// shared canonical entry order, emitting one op per prefix whose
    /// rule differs.
    ///
    /// Panics when the two tables belong to different devices.
    pub fn diff(old: &Fib, new: &Fib) -> FibPatch {
        assert_eq!(
            old.device, new.device,
            "a diff compares snapshots of the same device"
        );
        let set = |e: &FibEntry| {
            PatchOp::Set(DeltaRule {
                prefix: e.prefix,
                next_hops: new.next_hops(e).to_vec(),
                local: e.local,
            })
        };
        let mut ops = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.entries.len() && j < new.entries.len() {
            let (a, b) = (&old.entries[i], &new.entries[j]);
            match canonical_order(a.prefix, b.prefix) {
                std::cmp::Ordering::Equal => {
                    if a.local != b.local || old.next_hops(a) != new.next_hops(b) {
                        ops.push(set(b));
                    }
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    ops.push(PatchOp::Withdraw(a.prefix));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    ops.push(set(b));
                    j += 1;
                }
            }
        }
        ops.extend(old.entries[i..].iter().map(|e| PatchOp::Withdraw(e.prefix)));
        ops.extend(new.entries[j..].iter().map(set));
        FibPatch::from_canonical(ops).expect("a merge walk of canonical tables")
    }

    /// The successor table a patch describes.
    ///
    /// Entries stay in canonical order and the pool comes out in
    /// first-use order of distinct content — the layout a
    /// [`FibBuilder`] gives the same rules pushed in entry order, and so
    /// `==` to what the simulator emits for them from a canonical work
    /// list — without hashing a hop vector: entry runs between patched
    /// prefixes are copied, and pool ids remapped only once a rule has
    /// actually changed the pool. An outcome that restates the base
    /// (a rule equal to the base's, a withdrawal of an absent prefix)
    /// changes nothing.
    pub fn patched(&self, patch: &FibPatch) -> Fib {
        if patch.is_empty() {
            return self.clone();
        }
        let mut entries: Vec<FibEntry> = Vec::with_capacity(self.entries.len() + patch.len());
        let mut pool = PatchedPool {
            base: self,
            sets: Vec::new(),
            remap: vec![u32::MAX; self.sets.len()],
            novel: Vec::new(),
        };
        let mut at = 0usize;
        for op in patch.ops() {
            let prefix = op.prefix();
            let until = at
                + self.entries[at..]
                    .partition_point(|e| canonical_order(e.prefix, prefix).is_lt());
            pool.copy(&self.entries[at..until], &mut entries);
            at = until + usize::from(self.entries.get(until).is_some_and(|e| e.prefix == prefix));
            if let PatchOp::Set(r) = op {
                let set = pool.intern(&r.next_hops);
                entries.push(FibEntry {
                    prefix,
                    set,
                    local: r.local,
                });
            }
        }
        pool.copy(&self.entries[at..], &mut entries);
        Fib {
            device: self.device,
            entries,
            sets: pool.sets,
        }
    }

    /// Apply a delta, producing the successor table — pool layout
    /// included, it is [`patched`](Self::patched)'s.
    ///
    /// Fails when the delta targets another device, when it was
    /// computed against a different base (hash mismatch — e.g. the
    /// device republished between pull and apply), or when the result
    /// does not hash to the delta's `new_hash`.
    pub fn apply_delta(&self, delta: &FibDelta) -> Result<Fib, ParseError> {
        let err = |reason: &str| ParseError::new("fib delta", "<apply>", reason);
        if delta.device != self.device.0 {
            return Err(err("delta targets a different device"));
        }
        if delta.base_hash != self.content_hash() {
            return Err(err("base hash mismatch: delta is stale"));
        }
        let next = self.patched(&delta.patch);
        if next.content_hash() != delta.new_hash {
            return Err(err("applied delta does not reproduce the target table"));
        }
        Ok(next)
    }
}

/// The successor pool [`Fib::patched`] grows: base sets enter at their
/// first use, patch rules' sets as they are interned.
struct PatchedPool<'a> {
    base: &'a Fib,
    sets: Vec<Vec<Ipv4>>,
    /// Base pool id → successor pool id (`u32::MAX` until first use).
    remap: Vec<u32>,
    /// Successor ids whose content a patch rule brought in. Base sets
    /// are pairwise distinct, so a base set's first use can only
    /// collide with one of these — probing the whole pool per first use
    /// would be quadratic in pool size.
    novel: Vec<u32>,
}

impl PatchedPool<'_> {
    /// The successor id of a base set, entering it at first use.
    fn of_base(&mut self, id: u32) -> u32 {
        if self.remap[id as usize] == u32::MAX {
            let content = self.base.set(id);
            let hit = self.novel.iter().find(|&&i| self.sets[i as usize] == content);
            self.remap[id as usize] = match hit {
                Some(&i) => i,
                None => {
                    self.sets.push(content.to_vec());
                    (self.sets.len() - 1) as u32
                }
            };
        }
        self.remap[id as usize]
    }

    /// The successor id of a patch rule's hop set. It can collide with
    /// anything already in the pool; calls are one per patched rule, so
    /// a linear scan is fine.
    fn intern(&mut self, hops: &[Ipv4]) -> u32 {
        match self.sets.iter().position(|s| s == hops) {
            Some(i) => i as u32,
            None => {
                self.sets.push(hops.to_vec());
                let id = (self.sets.len() - 1) as u32;
                self.novel.push(id);
                id
            }
        }
    }

    /// Append a run of base entries. Most ids map to themselves (a
    /// base pool in first-use order does until a patch rule enters, and
    /// a patch appends to or reuses the pool, it rarely reorders it),
    /// so maximal identity-mapped stretches go through memcpy and only
    /// first uses and the exceptions pay a per-entry remap.
    fn copy(&mut self, run: &[FibEntry], entries: &mut Vec<FibEntry>) {
        let mut j = 0usize;
        while j < run.len() {
            let start = j;
            while j < run.len() && self.remap[run[j].set as usize] == run[j].set {
                j += 1;
            }
            entries.extend_from_slice(&run[start..j]);
            if let Some(&e) = run.get(j) {
                let set = self.of_base(e.set);
                entries.push(FibEntry { set, ..e });
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn hops(addrs: &[[u8; 4]]) -> Vec<Ipv4> {
        addrs.iter().map(|&o| Ipv4::from(o)).collect()
    }

    fn sample() -> Fib {
        let mut b = FibBuilder::new(DeviceId(9));
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("10.0.0.0/24"), vec![], true);
        b.push(p("10.0.0.0/16"), hops(&[[30, 0, 0, 5]]), false);
        b.finish()
    }

    #[test]
    fn entries_sorted_longest_first() {
        let f = sample();
        let lens: Vec<u8> = f.entries().iter().map(|e| e.prefix.len()).collect();
        assert_eq!(lens, vec![24, 24, 16, 0]);
    }

    #[test]
    fn interning_dedupes_sets() {
        let f = sample();
        // Two entries share {30.0.0.1, 30.0.0.3}; plus {} and {30.0.0.5}.
        assert_eq!(f.set_pool_len(), 3);
    }

    #[test]
    fn interning_is_order_insensitive() {
        let mut b = FibBuilder::new(DeviceId(0));
        let a = b.intern(hops(&[[30, 0, 0, 3], [30, 0, 0, 1]]));
        let c = b.intern(hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]));
        assert_eq!(a, c);
    }

    #[test]
    fn longest_prefix_match() {
        let f = sample();
        // 10.0.0.7 matches /24 local, /16, /0 -> the local /24 wins.
        let e = f.lookup(Ipv4::new(10, 0, 0, 7)).unwrap();
        assert_eq!(e.prefix, p("10.0.0.0/24"));
        assert!(e.local);
        // 10.0.9.9 matches /16 and /0 -> /16.
        let e = f.lookup(Ipv4::new(10, 0, 9, 9)).unwrap();
        assert_eq!(e.prefix, p("10.0.0.0/16"));
        // 99.0.0.1 only the default.
        let e = f.lookup(Ipv4::new(99, 0, 0, 1)).unwrap();
        assert!(e.prefix.is_default());
    }

    #[test]
    fn default_entry_found() {
        let f = sample();
        assert!(f.default_entry().is_some());
        let no_default = {
            let mut b = FibBuilder::new(DeviceId(1));
            b.push(p("10.0.0.0/24"), vec![], true);
            b.finish()
        };
        assert!(no_default.default_entry().is_none());
        assert!(Fib::empty(DeviceId(2)).default_entry().is_none());
    }

    #[test]
    fn builder_collapses_duplicate_prefixes_last_push_wins() {
        let mut b = FibBuilder::new(DeviceId(4));
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 1]]), false);
        b.push(p("10.0.0.0/16"), hops(&[[30, 0, 0, 5]]), false);
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 2]]), false);
        let f = b.finish();
        assert_eq!(f.len(), 2);
        let e = f.entry_for(p("10.0.0.0/24")).unwrap();
        // Re-advertisement overwrites: the later push's hops win.
        assert_eq!(f.next_hops(e), &[Ipv4::new(30, 0, 0, 2)]);
        // The sorted-uniqueness invariant holds for binary search.
        assert_eq!(
            f.lookup(Ipv4::new(10, 0, 0, 9)).unwrap().prefix,
            p("10.0.0.0/24")
        );
    }

    #[test]
    fn from_wire_rejects_duplicate_prefixes() {
        // The sample's first entry listed again right after itself: a
        // valid header, a prefix named twice.
        let f = sample();
        let first = f.entries()[0];
        let rules = f.entries()[..1].iter().chain(f.entries());
        let w = WireSnapshot::write(9, rules.map(|e| (e.prefix, f.next_hops(e))));
        let err = Fib::from_wire(&w).unwrap_err();
        assert!(err.to_string().contains(&format!("prefix {} named twice", first.prefix)));
        // The image hash refuses exactly what the decode refuses.
        assert_eq!(w.content_hash().unwrap_err(), err);
    }

    #[test]
    fn intern_dedupes_repeated_hop_addresses() {
        // {a, a} and {a} are the same next-hop set; if interning kept
        // the duplicate, the trie engine (vector equality) and the SMT
        // engine (boolean disjunction) would disagree about whether the
        // entry meets a contract expecting {a}.
        let mut b = FibBuilder::new(DeviceId(5));
        let one = b.intern(hops(&[[30, 0, 0, 1]]));
        let dup = b.intern(hops(&[[30, 0, 0, 1], [30, 0, 0, 1]]));
        assert_eq!(one, dup);
        b.push(
            p("10.0.0.0/24"),
            hops(&[[30, 0, 0, 3], [30, 0, 0, 3], [30, 0, 0, 1]]),
            false,
        );
        let f = b.finish();
        let e = f.entry_for(p("10.0.0.0/24")).unwrap();
        assert_eq!(
            f.next_hops(e),
            &[Ipv4::new(30, 0, 0, 1), Ipv4::new(30, 0, 0, 3)]
        );
    }

    #[test]
    fn wire_round_trip() {
        let f = sample();
        let w = f.to_wire();
        let back = Fib::from_wire(&w).unwrap();
        assert_eq!(back.device(), f.device());
        assert_eq!(back.len(), f.len());
        for (a, b) in f.entries().iter().zip(back.entries()) {
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(f.next_hops(a), back.next_hops(b));
            assert_eq!(a.local, b.local);
        }
        // One hash, from the bytes or from the table; and the decode
        // re-encodes to the very image.
        assert_eq!(w.content_hash(), Ok(f.content_hash()));
        assert_eq!(back.to_wire(), w);
        // The decode pools hop sets in first-use order, as a builder
        // fed the entries in canonical order does; `sample` pushed its
        // default first, so its own pool is laid out otherwise.
        let mut b = FibBuilder::new(DeviceId(9));
        for e in f.entries() {
            b.push(e.prefix, f.next_hops(e).to_vec(), e.local);
        }
        assert_eq!(back, b.finish());
        assert_ne!(back, f);
    }

    #[test]
    fn entry_for_exact_prefix() {
        let f = sample();
        assert!(f.entry_for(p("10.0.0.0/16")).is_some());
        assert!(f.entry_for(p("10.0.0.0/20")).is_none());
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let f = sample();
        assert_eq!(f.content_hash(), sample().content_hash());
        // Insertion order does not matter (finish() canonicalizes).
        let mut b = FibBuilder::new(DeviceId(9));
        b.push(p("10.0.0.0/16"), hops(&[[30, 0, 0, 5]]), false);
        b.push(p("10.0.0.0/24"), vec![], true);
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        assert_eq!(b.finish().content_hash(), f.content_hash());
        // Device, hops, locality, and membership all discriminate.
        let mut b = FibBuilder::new(DeviceId(10));
        for e in f.entries() {
            b.push(e.prefix, f.next_hops(e).to_vec(), e.local);
        }
        assert_ne!(b.finish().content_hash(), f.content_hash());
        let mut b = FibBuilder::new(DeviceId(9));
        for e in f.entries() {
            let mut h = f.next_hops(e).to_vec();
            if e.prefix == p("10.0.0.0/16") {
                h.pop();
            }
            b.push(e.prefix, h, e.local);
        }
        assert_ne!(b.finish().content_hash(), f.content_hash());
        let mut b = FibBuilder::new(DeviceId(9));
        for e in f.entries() {
            b.push(
                e.prefix,
                f.next_hops(e).to_vec(),
                e.local ^ (e.prefix == p("10.0.0.0/24")),
            );
        }
        assert_ne!(b.finish().content_hash(), f.content_hash());
        assert_ne!(Fib::empty(DeviceId(9)).content_hash(), f.content_hash());
    }

    fn modified_sample() -> Fib {
        let mut b = FibBuilder::new(DeviceId(9));
        // default unchanged
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        // 10.0.1.0/24 modified (hops truncated)
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1]]), false);
        // 10.0.0.0/24 local unchanged
        b.push(p("10.0.0.0/24"), vec![], true);
        // 10.0.0.0/16 removed; 10.2.0.0/16 added
        b.push(p("10.2.0.0/16"), hops(&[[30, 0, 0, 7]]), false);
        b.finish()
    }

    #[test]
    fn delta_classifies_changes() {
        let old = sample();
        let new = modified_sample();
        let d = Fib::delta(&old, &new);
        assert_eq!(d.device, 9);
        assert_eq!(d.base_hash, old.content_hash());
        assert_eq!(d.new_hash, new.content_hash());
        // One op per prefix that differs, in entry order: the modified
        // rule with its new hops, the removal, the addition.
        assert_eq!(
            d.patch.ops(),
            [
                PatchOp::Set(DeltaRule {
                    prefix: p("10.0.1.0/24"),
                    next_hops: hops(&[[30, 0, 0, 1]]),
                    local: false,
                }),
                PatchOp::Withdraw(p("10.0.0.0/16")),
                PatchOp::Set(DeltaRule {
                    prefix: p("10.2.0.0/16"),
                    next_hops: hops(&[[30, 0, 0, 7]]),
                    local: false,
                }),
            ]
        );
        // Self-delta is empty.
        assert!(Fib::delta(&old, &old).patch.is_empty());
    }

    #[test]
    fn apply_delta_reproduces_target() {
        let old = sample();
        let new = modified_sample();
        let d = Fib::delta(&old, &new);
        // Round-trip through the wire format, like the live pipeline.
        let d = netprim::wire::FibDelta::decode(&d.encode()).unwrap();
        let applied = old.apply_delta(&d).unwrap();
        // Same forwarding content (`modified_sample` pushes its default
        // first, so its pool is not in entry first-use order).
        assert_eq!(applied.content_hash(), new.content_hash());
        for (a, b) in applied.entries().iter().zip(new.entries()) {
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(applied.next_hops(a), new.next_hops(b));
            assert_eq!(a.local, b.local);
        }
    }

    #[test]
    fn apply_delta_rejects_stale_or_foreign_deltas() {
        let old = sample();
        let new = modified_sample();
        let d = Fib::delta(&old, &new);
        // Wrong base: applying to the target instead of the base.
        assert!(new.apply_delta(&d).is_err());
        // Wrong device.
        let other = Fib::empty(DeviceId(3));
        assert!(other.apply_delta(&d).is_err());
        // Tampered target hash.
        let mut bad = d.clone();
        bad.new_hash ^= 1;
        assert!(old.apply_delta(&bad).is_err());
    }

    #[test]
    fn hand_built_patch_round_trips_against_a_builder_built_table() {
        // One patch that brings in a novel hop set, re-uses one the
        // base already pools, and withdraws a rule — given out of
        // order with unsorted hops, over a base whose pool is *not* in
        // entry first-use order (`sample` pushes the default first).
        let base = sample();
        let rule = |prefix: &str, next_hops: Vec<Ipv4>| {
            PatchOp::Set(DeltaRule {
                prefix: p(prefix),
                next_hops,
                local: false,
            })
        };
        let patch = FibPatch::new(vec![
            rule("10.2.0.0/16", hops(&[[30, 0, 0, 3], [30, 0, 0, 1]])),
            PatchOp::Withdraw(p("10.0.0.0/16")),
            rule("10.0.1.0/24", hops(&[[30, 0, 0, 7], [30, 0, 0, 1], [30, 0, 0, 7]])),
        ]);
        assert_eq!(
            patch.prefixes().collect::<Vec<_>>(),
            vec![p("10.0.1.0/24"), p("10.0.0.0/16"), p("10.2.0.0/16")]
        );
        // The same rules pushed in entry order.
        let mut b = FibBuilder::new(DeviceId(9));
        b.push(p("10.0.0.0/24"), vec![], true);
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1], [30, 0, 0, 7]]), false);
        b.push(p("10.2.0.0/16"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        let target = b.finish();
        let patched = base.patched(&patch);
        assert_eq!(patched, target, "entries and pool layout");
        assert_eq!(patched.set_pool_len(), 3);
        // The patch is exactly the difference.
        assert_eq!(patch, Fib::delta(&base, &target).patch);
        // Outcomes that restate the base change nothing; neither does
        // no outcome at all.
        let restated = FibPatch::new(vec![
            rule("10.0.0.0/16", hops(&[[30, 0, 0, 5]])),
            PatchOp::Withdraw(p("10.9.0.0/16")),
        ]);
        assert_eq!(base.patched(&restated).content_hash(), base.content_hash());
        assert_eq!(base.patched(&FibPatch::default()), base);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn patch_rejects_a_prefix_named_twice() {
        FibPatch::new(vec![
            PatchOp::Withdraw(p("10.0.0.0/16")),
            PatchOp::Withdraw(p("10.0.0.0/16")),
        ]);
    }

    #[test]
    fn push_bits_interns_like_push() {
        // The bitset path and the Vec path must agree on pool identity
        // and canonical hop order, whichever interleaving occurs.
        let table = hops(&[[30, 0, 0, 1], [30, 0, 0, 3], [30, 0, 0, 5]]);
        let mut b = FibBuilder::new(DeviceId(2));
        let bits: HopSet = [0u16, 2].into_iter().collect();
        b.push_bits(p("10.0.0.0/24"), &bits, &table, false);
        b.push(
            p("10.0.1.0/24"),
            hops(&[[30, 0, 0, 5], [30, 0, 0, 1]]),
            false,
        );
        b.push_bits(p("10.0.2.0/24"), &HopSet::new(), &table, true);
        let f = b.finish();
        assert_eq!(f.set_pool_len(), 2, "vec and bitset pushes share sets");
        let a = f.entry_for(p("10.0.0.0/24")).unwrap();
        let c = f.entry_for(p("10.0.1.0/24")).unwrap();
        assert_eq!(a.set, c.set);
        assert_eq!(
            f.next_hops(a),
            &[Ipv4::new(30, 0, 0, 1), Ipv4::new(30, 0, 0, 5)]
        );
        let l = f.entry_for(p("10.0.2.0/24")).unwrap();
        assert!(l.local);
        assert!(f.next_hops(l).is_empty());
    }

    #[test]
    fn absorb_replays_pushes_in_order() {
        // Serial pushes vs two absorbed partial builders: identical
        // tables, interned pool layout included.
        let build = |b: &mut FibBuilder, range: std::ops::Range<u8>| {
            for i in range {
                b.push(
                    p(&format!("10.0.{i}.0/24")),
                    hops(&[[30, 0, 0, i % 3 + 1]]),
                    false,
                );
            }
        };
        let mut serial = FibBuilder::new(DeviceId(7));
        build(&mut serial, 0..8);
        let mut w0 = FibBuilder::new(DeviceId(7));
        build(&mut w0, 0..5);
        let mut w1 = FibBuilder::new(DeviceId(7));
        build(&mut w1, 5..8);
        assert_eq!(w0.len(), 5);
        assert!(!w1.is_empty());
        let mut merged = FibBuilder::new(DeviceId(7));
        merged.absorb(&w0);
        merged.absorb(&w1);
        assert_eq!(merged.finish(), serial.finish());
    }

    #[test]
    fn delta_preserves_locality_with_hops() {
        // A locally originated rule that records next hops survives a
        // delta round trip (full snapshots cannot express this; deltas
        // carry locality explicitly).
        let mut b = FibBuilder::new(DeviceId(1));
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 9]]), true);
        let old = b.finish();
        let mut b = FibBuilder::new(DeviceId(1));
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 9]]), false);
        let new = b.finish();
        let d = Fib::delta(&old, &new);
        assert!(matches!(d.patch.ops(), [PatchOp::Set(r)] if !r.local));
        assert_eq!(old.apply_delta(&d).unwrap(), new);
    }
}
