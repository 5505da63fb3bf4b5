//! Compact binary codec for pulled routing tables.
//!
//! RCDC's routing-table puller fetches FIBs from every device and parks
//! them in a store before validation (paper §2.6.1). This module defines
//! the transfer format used between the puller and the validator in our
//! reproduction: a length-prefixed list of `(prefix, next-hops)` entries.
//!
//! The format is deliberately simple and versioned:
//!
//! ```text
//! magic   : b"FIB1"
//! device  : u32   (device id the snapshot came from)
//! count   : u32   (number of entries)
//! entry   : addr u32 | len u8 | nhops u16 | nhop u32 * nhops
//! ```
//!
//! Incremental pulls ship a [`FibDelta`] instead: the [`FibPatch`] that
//! turns one table version into the next, anchored to the content
//! hashes of both so a stale or misapplied delta is detected when
//! applied:
//!
//! ```text
//! magic   : b"FIBD"
//! device  : u32
//! base    : u64   (content hash of the table the delta applies to)
//! target  : u64   (content hash of the table after application)
//! count   : u32   (number of ops)
//! op      : addr u32 | len u8 | flags u8 | nhops u16 | nhop u32 * nhops
//! ```
//!
//! `flags` 0 sets a forwarded rule, 1 a locally originated one
//! (snapshots infer locality from an empty next-hop list; a delta must
//! reproduce its target bit-for-bit), 2 withdraws the prefix's rule and
//! ends the op there. Ops come in [`canonical_order`], each prefix
//! once, next hops strictly ascending: [`FibDelta::decode`] refuses
//! anything else, so a decoded delta is a valid patch.
//!
//! All integers are big-endian.

use crate::error::ParseError;
use crate::ip::Ipv4;
use crate::prefix::Prefix;
use std::cmp::Ordering;

/// Magic bytes identifying a FIB snapshot, version 1.
pub const MAGIC: &[u8; 4] = b"FIB1";

/// Magic bytes identifying a FIB delta, version 1.
pub const DELTA_MAGIC: &[u8; 4] = b"FIBD";

/// What kind of frame a byte buffer claims to carry, by magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A full [`WireSnapshot`] (`FIB1`).
    Snapshot,
    /// A [`FibDelta`] (`FIBD`).
    Delta,
}

/// Peek at a frame's magic without decoding it: `Some(kind)` when the
/// buffer starts with a known magic, `None` otherwise (truncated or
/// corrupted framing). Receivers route full snapshots and deltas off
/// one channel with this — and fall back to requesting a full snapshot
/// when corruption makes the frame unrecognizable.
pub fn frame_kind(buf: &[u8]) -> Option<FrameKind> {
    match buf.get(..4) {
        Some(m) if m == MAGIC => Some(FrameKind::Snapshot),
        Some(m) if m == DELTA_MAGIC => Some(FrameKind::Delta),
        _ => None,
    }
}

/// Read cursor over one frame's bytes; integers are big-endian. Every
/// read is preceded by a [`need`](Self::need) that names what was cut
/// short, so a decoder never indexes past the buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    /// The frame kind, for error messages.
    what: &'static str,
}

impl Cursor<'_> {
    fn err(&self, reason: &str) -> ParseError {
        ParseError::new(self.what, "<binary>", reason)
    }

    /// Fail with `truncated` unless `n` more bytes are there.
    fn need(&self, n: usize, truncated: &str) -> Result<(), ParseError> {
        (self.buf.len() >= n).then_some(()).ok_or_else(|| self.err(truncated))
    }

    /// The next `N` bytes; the caller has `need`ed them.
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        head.try_into().expect("split_at(N) yields N bytes")
    }

    fn u8(&mut self) -> u8 {
        u8::from_be_bytes(self.take())
    }

    fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take())
    }

    fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }

    fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take())
    }

    /// A list's `count u32` and a vector to fill: the reservation is
    /// clamped so that a hostile count cannot allocate ahead of the
    /// bytes that would have to back it.
    fn list<T>(&mut self) -> (usize, Vec<T>) {
        let count = self.u32() as usize;
        (count, Vec::with_capacity(count.min(1 << 20)))
    }

    /// `nhop u32 * count`.
    fn next_hops(&mut self, count: u16) -> Result<Vec<Ipv4>, ParseError> {
        self.need(usize::from(count) * 4, "truncated next-hop list")?;
        Ok((0..count).map(|_| Ipv4(self.u32())).collect())
    }

    /// The prefix an `addr u32 | len u8` pair names, canonical or
    /// refused as `bad`.
    fn prefix(&self, addr: u32, len: u8, bad: &str) -> Result<Prefix, ParseError> {
        Prefix::new(Ipv4(addr), len).map_err(|e| self.err(&format!("{bad}: {e}")))
    }

    /// Nothing may follow the last field.
    fn end(&self, trailing: &str) -> Result<(), ParseError> {
        self.buf.is_empty().then_some(()).ok_or_else(|| self.err(trailing))
    }
}

fn put_prefix(buf: &mut Vec<u8>, prefix: Prefix) {
    buf.extend_from_slice(&prefix.addr().0.to_be_bytes());
    buf.push(prefix.len());
}

fn put_next_hops(buf: &mut Vec<u8>, next_hops: &[Ipv4]) {
    buf.extend_from_slice(&(next_hops.len() as u16).to_be_bytes());
    for nh in next_hops {
        buf.extend_from_slice(&nh.0.to_be_bytes());
    }
}

/// One routing entry in the transfer format: destination prefix plus
/// the resolved set of next-hop addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEntry {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Next-hop addresses, in device order.
    pub next_hops: Vec<Ipv4>,
}

/// A full FIB snapshot pulled from one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Numeric id of the source device.
    pub device: u32,
    /// Routing entries; order is preserved by the codec.
    pub entries: Vec<WireEntry>,
}

impl WireSnapshot {
    /// Serialize the snapshot into a freshly allocated buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + self.entries.len() * 16);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.device.to_be_bytes());
        buf.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for e in &self.entries {
            put_prefix(&mut buf, e.prefix);
            put_next_hops(&mut buf, &e.next_hops);
        }
        buf
    }

    /// Decode a snapshot, validating magic, lengths, and prefix
    /// canonicality. Trailing bytes are rejected.
    pub fn decode(buf: &[u8]) -> Result<WireSnapshot, ParseError> {
        let what = "fib snapshot";
        let mut cur = Cursor { buf, what };
        cur.need(12, "truncated header")?;
        if &cur.take::<4>() != MAGIC {
            return Err(cur.err("bad magic"));
        }
        let device = cur.u32();
        let (count, mut entries) = cur.list();
        for _ in 0..count {
            cur.need(7, "truncated entry header")?;
            let (addr, len, nh_count) = (cur.u32(), cur.u8(), cur.u16());
            let next_hops = cur.next_hops(nh_count)?;
            let prefix = cur.prefix(addr, len, "bad prefix in entry")?;
            entries.push(WireEntry { prefix, next_hops });
        }
        cur.end("trailing bytes after last entry")?;
        Ok(WireSnapshot { device, entries })
    }
}

/// The canonical entry order — descending prefix length, then ascending
/// address — of a table's entries and a patch's outcomes.
pub fn canonical_order(a: Prefix, b: Prefix) -> Ordering {
    b.len().cmp(&a.len()).then(a.addr().cmp(&b.addr()))
}

/// A rule's contents inside a [`PatchOp::Set`].
///
/// Unlike [`WireEntry`], locality is carried explicitly, so a patch is
/// lossless even for locally originated rules that record next hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRule {
    /// Destination prefix of the rule.
    pub prefix: Prefix,
    /// The rule's (new) next-hop addresses.
    pub next_hops: Vec<Ipv4>,
    /// The rule is locally originated.
    pub local: bool,
}

/// One prefix's outcome in a [`FibPatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchOp {
    /// The prefix now holds this rule: added, or replacing the base's.
    Set(DeltaRule),
    /// The base's rule for this prefix is withdrawn.
    Withdraw(Prefix),
}

impl PatchOp {
    /// The prefix whose rule this outcome decides.
    pub fn prefix(&self) -> Prefix {
        match self {
            PatchOp::Set(r) => r.prefix,
            PatchOp::Withdraw(p) => *p,
        }
    }
}

/// What turns a base table into its successor: one [`PatchOp`] per
/// prefix whose rule differs, in [`canonical_order`], each prefix at
/// most once, next hops canonical (strictly ascending). Both
/// constructors enforce that, so every patch there is satisfies it.
///
/// The one description of a change to a table: a restarted fixed point
/// hands it to the verification engines as `(base table, patch)`
/// without building the successor, and a [`FibDelta`] carries it
/// between two content hashes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FibPatch {
    ops: Vec<PatchOp>,
}

impl FibPatch {
    /// A patch from outcomes in any order; next hops are sorted and
    /// deduplicated the way a table's interner does.
    ///
    /// # Panics
    ///
    /// When two outcomes name the same prefix.
    pub fn new(mut ops: Vec<PatchOp>) -> FibPatch {
        for op in &mut ops {
            if let PatchOp::Set(r) = op {
                r.next_hops.sort_unstable();
                r.next_hops.dedup();
            }
        }
        ops.sort_by(|a, b| canonical_order(a.prefix(), b.prefix()));
        FibPatch::from_canonical(ops).unwrap_or_else(|e| panic!("{}", e.reason))
    }

    /// A patch from outcomes already in canonical form — what a merge
    /// walk of two tables emits, and what a `FIBD` frame must carry.
    /// The error names the first outcome that is not.
    pub fn from_canonical(ops: Vec<PatchOp>) -> Result<FibPatch, ParseError> {
        let err = |reason: String| Err(ParseError::new("fib patch", "<ops>", reason));
        for w in ops.windows(2) {
            match canonical_order(w[0].prefix(), w[1].prefix()) {
                Ordering::Less => {}
                Ordering::Equal => return err(format!("prefix {} named twice", w[1].prefix())),
                Ordering::Greater => return err(format!("prefix {} out of order", w[1].prefix())),
            }
        }
        for op in &ops {
            if let PatchOp::Set(r) = op {
                if !r.next_hops.windows(2).all(|w| w[0] < w[1]) {
                    return err(format!("next hops of {} not strictly ascending", r.prefix));
                }
            }
        }
        Ok(FibPatch { ops })
    }

    /// The outcomes, in canonical entry order.
    pub fn ops(&self) -> &[PatchOp] {
        &self.ops
    }

    /// The prefixes whose rules the patch decides, in canonical entry
    /// order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.ops.iter().map(PatchOp::prefix)
    }

    /// Number of rules set or withdrawn.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the successor is the base itself.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The `flags` byte of a withdrawal; 0 and 1 are a set rule's locality.
const WITHDRAW: u8 = 2;

/// The difference between two FIB snapshots of one device: a patch
/// between two content hashes.
///
/// `base_hash` names the table the patch applies to and `new_hash` the
/// table that applying it must produce, so stale deltas are rejected
/// instead of silently corrupting the store (§2.6.1's pipeline pulls
/// continuously; a device can republish between pull and apply).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FibDelta {
    /// Numeric id of the source device.
    pub device: u32,
    /// Content hash of the base table.
    pub base_hash: u64,
    /// Content hash of the table after application.
    pub new_hash: u64,
    /// What turns the base table into the new one.
    pub patch: FibPatch,
}

impl FibDelta {
    /// Serialize the delta into a freshly allocated buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(28 + self.patch.len() * 16);
        buf.extend_from_slice(DELTA_MAGIC);
        buf.extend_from_slice(&self.device.to_be_bytes());
        buf.extend_from_slice(&self.base_hash.to_be_bytes());
        buf.extend_from_slice(&self.new_hash.to_be_bytes());
        buf.extend_from_slice(&(self.patch.len() as u32).to_be_bytes());
        for op in self.patch.ops() {
            put_prefix(&mut buf, op.prefix());
            match op {
                PatchOp::Set(r) => {
                    buf.push(u8::from(r.local));
                    put_next_hops(&mut buf, &r.next_hops);
                }
                PatchOp::Withdraw(_) => buf.push(WITHDRAW),
            }
        }
        buf
    }

    /// Decode a delta, validating magic, lengths, prefix canonicality
    /// and the patch's canonical form. Trailing bytes are rejected.
    pub fn decode(buf: &[u8]) -> Result<FibDelta, ParseError> {
        let what = "fib delta";
        let mut cur = Cursor { buf, what };
        cur.need(28, "truncated header")?;
        if &cur.take::<4>() != DELTA_MAGIC {
            return Err(cur.err("bad magic"));
        }
        let (device, base_hash, new_hash) = (cur.u32(), cur.u64(), cur.u64());
        let (count, mut ops) = cur.list();
        for _ in 0..count {
            cur.need(6, "truncated op header")?;
            let (addr, len, flags) = (cur.u32(), cur.u8(), cur.u8());
            let prefix = cur.prefix(addr, len, "bad prefix in op")?;
            ops.push(match flags {
                WITHDRAW => PatchOp::Withdraw(prefix),
                0 | 1 => {
                    cur.need(2, "truncated next-hop count")?;
                    let nh_count = cur.u16();
                    PatchOp::Set(DeltaRule {
                        prefix,
                        next_hops: cur.next_hops(nh_count)?,
                        local: flags == 1,
                    })
                }
                _ => return Err(cur.err("unknown op flags")),
            });
        }
        cur.end("trailing bytes after last op")?;
        let patch = FibPatch::from_canonical(ops).map_err(|e| cur.err(&e.reason))?;
        Ok(FibDelta {
            device,
            base_hash,
            new_hash,
            patch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> WireSnapshot {
        WireSnapshot {
            device: 42,
            entries: vec![
                WireEntry {
                    prefix: "0.0.0.0/0".parse().unwrap(),
                    next_hops: vec![Ipv4::new(30, 10, 192, 12), Ipv4::new(30, 10, 192, 16)],
                },
                WireEntry {
                    prefix: "10.3.129.224/28".parse().unwrap(),
                    next_hops: vec![Ipv4::new(10, 10, 192, 12)],
                },
                WireEntry {
                    prefix: "10.4.0.0/16".parse().unwrap(),
                    next_hops: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let s = snapshot();
        let bytes = s.encode();
        let back = WireSnapshot::decode(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = WireSnapshot {
            device: 0,
            entries: vec![],
        };
        assert_eq!(WireSnapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = snapshot().encode().to_vec();
        bytes[0] = b'X';
        assert!(WireSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = snapshot().encode().to_vec();
        for cut in 0..bytes.len() {
            assert!(
                WireSnapshot::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = snapshot().encode().to_vec();
        bytes.push(0);
        assert!(WireSnapshot::decode(&bytes).is_err());
    }

    fn delta() -> FibDelta {
        let set = |prefix: &str, next_hops, local| {
            PatchOp::Set(DeltaRule {
                prefix: prefix.parse().unwrap(),
                next_hops,
                local,
            })
        };
        FibDelta {
            device: 42,
            base_hash: 0xDEAD_BEEF_0BAD_F00D,
            new_hash: 0x1234_5678_9ABC_DEF0,
            // Given out of order, hops unsorted: `new` canonicalizes.
            patch: FibPatch::new(vec![
                set("0.0.0.0/0", vec![Ipv4::new(30, 10, 192, 12)], false),
                PatchOp::Withdraw("10.9.0.0/16".parse().unwrap()),
                set("10.4.0.0/16", vec![], true),
                set(
                    "10.3.129.224/28",
                    vec![Ipv4::new(10, 10, 192, 16), Ipv4::new(10, 10, 192, 12)],
                    false,
                ),
            ]),
        }
    }

    #[test]
    fn delta_round_trip() {
        let d = delta();
        assert_eq!(FibDelta::decode(&d.encode()).unwrap(), d);
        let order: Vec<String> = d.patch.prefixes().map(|p| p.to_string()).collect();
        assert_eq!(order, ["10.3.129.224/28", "10.4.0.0/16", "10.9.0.0/16", "0.0.0.0/0"]);
        assert_eq!(d.patch.len(), 4);
    }

    #[test]
    fn empty_delta_round_trips() {
        let d = FibDelta {
            device: 7,
            base_hash: 1,
            new_hash: 1,
            ..FibDelta::default()
        };
        assert_eq!(FibDelta::decode(&d.encode()).unwrap(), d);
        assert!(d.patch.is_empty());
    }

    #[test]
    fn delta_rejects_truncation_everywhere() {
        let bytes = delta().encode().to_vec();
        for cut in 0..bytes.len() {
            assert!(
                FibDelta::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn delta_rejects_bad_magic_and_trailing_bytes() {
        let mut bytes = delta().encode().to_vec();
        bytes[3] = b'X';
        assert!(FibDelta::decode(&bytes).is_err());
        let mut bytes = delta().encode().to_vec();
        bytes.push(0);
        assert!(FibDelta::decode(&bytes).is_err());
        // A snapshot is not a delta.
        assert!(FibDelta::decode(&snapshot().encode()).is_err());
    }

    #[test]
    fn delta_rejects_unknown_flags() {
        let mut bytes = delta().encode().to_vec();
        // First op's flags byte: magic(4) + device(4) + hashes(16) +
        // count(4) + addr(4) + len(1) = offset 33.
        bytes[33] = 0x80;
        assert!(FibDelta::decode(&bytes).is_err());
    }

    #[test]
    fn frame_kind_peeks_magic() {
        assert_eq!(frame_kind(&snapshot().encode()), Some(FrameKind::Snapshot));
        assert_eq!(frame_kind(&delta().encode()), Some(FrameKind::Delta));
        assert_eq!(frame_kind(b"FIB"), None); // truncated magic
        assert_eq!(frame_kind(b""), None);
        let mut corrupt = delta().encode().to_vec();
        corrupt[0] ^= 0xFF;
        assert_eq!(frame_kind(&corrupt), None);
    }

    #[test]
    fn rejects_noncanonical_prefix() {
        // Hand-build: one entry 10.0.0.1/8 (host bits set).
        let mut buf = MAGIC.to_vec();
        buf.extend([0, 0, 0, 1, 0, 0, 0, 1, 10, 0, 0, 1, 8, 0, 0]);
        let err = WireSnapshot::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("bad prefix in entry"), "{err}");
    }

    #[test]
    fn every_rejection_names_its_cause() {
        let reason = |bytes: &[u8]| match frame_kind(bytes) {
            Some(FrameKind::Snapshot) => WireSnapshot::decode(bytes).unwrap_err().to_string(),
            _ => FibDelta::decode(bytes).unwrap_err().to_string(),
        };
        let edited = |mut bytes: Vec<u8>, at: usize, with: &[u8]| {
            bytes.splice(at..at + with.len(), with.iter().copied());
            reason(&bytes)
        };
        let (s, d) = (snapshot().encode(), delta().encode());
        assert!(reason(&s[..11]).contains("truncated header"));
        assert!(reason(&s[..14]).contains("truncated entry header"));
        assert!(reason(&s[..20]).contains("truncated next-hop list"));
        assert!(reason(&[&s[..], &[0]].concat()).contains("trailing bytes after last entry"));
        // A count no bytes back: refused at the first missing entry,
        // with the reservation clamped rather than 4 Gi entries large.
        assert!(edited(s[..12].to_vec(), 8, &[0xFF; 4]).contains("truncated entry header"));
        assert!(edited(d.clone(), 0, b"FIBX").contains("bad magic"));
        assert!(reason(&d[..27]).contains("truncated header"));
        assert!(reason(&d[..30]).contains("truncated op header"));
        assert!(reason(&d[..35]).contains("truncated next-hop count"));
        assert!(reason(&d[..38]).contains("truncated next-hop list"));
        assert!(reason(&[&d[..], &[0]].concat()).contains("trailing bytes after last op"));
        assert!(edited(d.clone(), 33, &[3]).contains("unknown op flags"));
        // First op's length byte (offset 32): a /1 with host bits set.
        assert!(edited(d.clone(), 32, &[1]).contains("bad prefix in op"));
        // The second op (offset 44) is 10.4.0.0/16, the third the
        // withdrawal of 10.9.0.0/16: move the second past it, onto it.
        assert!(edited(d.clone(), 45, &[10]).contains("prefix 10.9.0.0/16 out of order"));
        assert!(edited(d.clone(), 45, &[9]).contains("prefix 10.9.0.0/16 named twice"));
        // The first op's second hop (offset 40) made equal to its first.
        assert!(edited(d.clone(), 43, &[12])
            .contains("next hops of 10.3.129.224/28 not strictly ascending"));
        // The three-list layout this format replaced: its added rules
        // read as set ops, and its other two counts are left over.
        let mut old = d[..24].to_vec();
        old.extend([0, 0, 0, 1, 10, 4, 0, 0, 16, 0, 0, 0]);
        old.extend([0; 8]);
        assert!(reason(&old).contains("trailing bytes after last op"));
    }
}
