//! Compact binary codec for pulled routing tables.
//!
//! RCDC's routing-table puller fetches FIBs from every device and parks
//! them in a store before validation (paper §2.6.1). A pull answers
//! with a [`WireSnapshot`], which *is* the table's `FIB1` image, shared:
//! handing one on costs a reference count, and an unchanged re-pull is
//! told by hashing its bytes ([`WireSnapshot::content_hash`]) before any
//! table is built.
//!
//! ```text
//! magic   : b"FIB1"
//! device  : u32   (device id the snapshot came from)
//! count   : u32   (number of entries)
//! entry   : addr u32 | len u8 | nhops u16 | nhop u32 * nhops
//! ```
//!
//! An image is canonical under the same rules as a delta's ops below:
//! entries in [`canonical_order`], each prefix once, next hops strictly
//! ascending. An entry with no next hops is locally originated (a pull
//! carries no other locality). The one reader,
//! [`WireSnapshot::read`], refuses anything else, and the table hash
//! and the decode are both built on it, so an image hashes exactly
//! when it decodes, to the hash of the table it decodes to.
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
//! `flags` 0 sets a forwarded rule, 1 a locally originated one (a delta
//! must reproduce its target bit-for-bit, so it carries locality), 2
//! withdraws the prefix's rule and ends the op there. Ops come in
//! [`canonical_order`], each prefix once, next hops strictly ascending:
//! [`FibDelta::decode`] refuses anything else, so a decoded delta is a
//! valid patch.
//!
//! All integers are big-endian.

use crate::error::ParseError;
use crate::ip::Ipv4;
use crate::prefix::Prefix;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

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

impl<'a> Cursor<'a> {
    fn err(&self, reason: &str) -> ParseError {
        ParseError::new(self.what, "<binary>", reason)
    }

    /// Fail with `truncated` unless `n` more bytes are there.
    fn need(&self, n: usize, truncated: &str) -> Result<(), ParseError> {
        (self.buf.len() >= n).then_some(()).ok_or_else(|| self.err(truncated))
    }

    /// The next `n` bytes, or `truncated`.
    fn bytes(&mut self, n: usize, truncated: &str) -> Result<&'a [u8], ParseError> {
        self.need(n, truncated)?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
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
        let hops = self.bytes(usize::from(count) * 4, "truncated next-hop list")?;
        Ok(hops_of(hops).collect())
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

/// The addresses of an encoded next-hop list.
fn hops_of(bytes: &[u8]) -> impl ExactSizeIterator<Item = Ipv4> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| Ipv4(u32::from_be_bytes([w[0], w[1], w[2], w[3]])))
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

/// The rule of canonical form that table images and patches share:
/// `next` comes strictly after `prev`.
fn check_order(prev: Prefix, next: Prefix) -> Result<(), String> {
    match canonical_order(prev, next) {
        Ordering::Less => Ok(()),
        Ordering::Equal => Err(format!("prefix {next} named twice")),
        Ordering::Greater => Err(format!("prefix {next} out of order")),
    }
}

/// The one table hash: FNV-1a over 64-bit words — the device, the entry
/// count, then per entry in canonical order its prefix, its locality
/// with its hop count, and its hops. Stability across runs is what
/// matters (hashes travel inside [`FibDelta`]s), not diffusion.
pub struct TableHasher(u64);

impl TableHasher {
    /// Start the hash of `device`'s table of `entries` entries.
    pub fn new(device: u32, entries: usize) -> TableHasher {
        let mut h = TableHasher(0xcbf2_9ce4_8422_2325);
        h.mix(u64::from(device));
        h.mix(entries as u64);
        h
    }

    fn mix(&mut self, word: u64) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        self.0 = (self.0 ^ word).wrapping_mul(PRIME);
    }

    /// Fold in the next entry.
    pub fn entry(
        &mut self,
        prefix: Prefix,
        local: bool,
        next_hops: impl ExactSizeIterator<Item = Ipv4>,
    ) {
        self.mix((u64::from(prefix.addr().0) << 8) | u64::from(prefix.len()));
        self.mix((u64::from(local) << 32) | next_hops.len() as u64);
        for nh in next_hops {
            self.mix(u64::from(nh.0));
        }
    }

    /// The hash of the entries folded in.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One entry of a snapshot image as [`WireSnapshot::read`] yields it,
/// borrowed from the image.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotEntry<'a> {
    /// Destination prefix.
    pub prefix: Prefix,
    /// `nhop u32 * nhops`, strictly ascending.
    hops: &'a [u8],
}

impl<'a> SnapshotEntry<'a> {
    /// The next-hop addresses, strictly ascending.
    pub fn next_hops(&self) -> impl ExactSizeIterator<Item = Ipv4> + 'a {
        hops_of(self.hops)
    }

    /// The encoded next-hop list. Lists are canonical, so two entries
    /// have equal hop sets exactly when these bytes are equal.
    pub fn hop_bytes(&self) -> &'a [u8] {
        self.hops
    }

    /// Locally originated: a rule with no next hops delivers below.
    pub fn is_local(&self) -> bool {
        self.hops.is_empty()
    }
}

/// Bytes of a snapshot's `magic | device | count` header.
const HEADER: usize = 12;

const SNAPSHOT: &str = "fib snapshot";

/// A full FIB snapshot pulled from one device: its `FIB1` image with a
/// checked header. Cloning shares the image.
#[derive(Clone, PartialEq, Eq)]
pub struct WireSnapshot {
    image: Arc<[u8]>,
}

impl WireSnapshot {
    /// Take a received image. Magic and header length are checked here;
    /// the entries are checked by [`read`](Self::read), which hashing
    /// and decoding go through.
    pub fn from_bytes(image: impl Into<Arc<[u8]>>) -> Result<WireSnapshot, ParseError> {
        let image = image.into();
        let cur = Cursor {
            buf: &image,
            what: SNAPSHOT,
        };
        cur.need(HEADER, "truncated header")?;
        if &image[..4] != MAGIC {
            return Err(cur.err("bad magic"));
        }
        Ok(WireSnapshot { image })
    }

    /// Write `device`'s image of `entries`, as given. Entries out of
    /// canonical form write an image that [`read`](Self::read) refuses.
    pub fn write<'a>(
        device: u32,
        entries: impl IntoIterator<Item = (Prefix, &'a [Ipv4])>,
    ) -> WireSnapshot {
        let entries = entries.into_iter();
        let mut buf = Vec::with_capacity(HEADER + entries.size_hint().0 * 15);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&device.to_be_bytes());
        buf.extend_from_slice(&[0; 4]);
        let mut count = 0u32;
        for (prefix, next_hops) in entries {
            put_prefix(&mut buf, prefix);
            put_next_hops(&mut buf, next_hops);
            count += 1;
        }
        buf[8..HEADER].copy_from_slice(&count.to_be_bytes());
        WireSnapshot { image: buf.into() }
    }

    /// The image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Numeric id of the source device, as the header states it.
    pub fn device(&self) -> u32 {
        u32::from_be_bytes([self.image[4], self.image[5], self.image[6], self.image[7]])
    }

    /// The number of entries the header declares; an image whose
    /// entries [`read`](Self::read) accepts has exactly this many.
    pub fn declared_entries(&self) -> usize {
        u32::from_be_bytes([self.image[8], self.image[9], self.image[10], self.image[11]]) as usize
    }

    /// The one reader: hand every entry to `visit`, in image order,
    /// after checking it is where canonical form says it must be. The
    /// error names the first thing that is not: a truncated entry or
    /// hop list, a bad prefix, a prefix out of order or named twice,
    /// next hops not strictly ascending, or trailing bytes. On an error
    /// some entries may already have been visited.
    pub fn read<'a>(&'a self, mut visit: impl FnMut(SnapshotEntry<'a>)) -> Result<(), ParseError> {
        let mut cur = Cursor {
            buf: &self.image[HEADER..],
            what: SNAPSHOT,
        };
        let mut prev: Option<Prefix> = None;
        for _ in 0..self.declared_entries() {
            cur.need(7, "truncated entry header")?;
            let (addr, len, nh_count) = (cur.u32(), cur.u8(), cur.u16());
            let hops = cur.bytes(usize::from(nh_count) * 4, "truncated next-hop list")?;
            let prefix = cur.prefix(addr, len, "bad prefix in entry")?;
            if let Some(prev) = prev {
                check_order(prev, prefix).map_err(|reason| cur.err(&reason))?;
            }
            // Big-endian words order as their bytes do.
            let words = hops.chunks_exact(4);
            if !words.clone().zip(words.skip(1)).all(|(a, b)| a < b) {
                return Err(cur.err(&format!("next hops of {prefix} not strictly ascending")));
            }
            prev = Some(prefix);
            visit(SnapshotEntry { prefix, hops });
        }
        cur.end("trailing bytes after last entry")
    }

    /// The content hash of the table the image decodes to, taken from
    /// the bytes alone: `Ok` exactly when the image decodes.
    pub fn content_hash(&self) -> Result<u64, ParseError> {
        let mut h = TableHasher::new(self.device(), self.declared_entries());
        self.read(|e| h.entry(e.prefix, e.is_local(), e.next_hops()))?;
        Ok(h.finish())
    }
}

impl fmt::Debug for WireSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireSnapshot")
            .field("device", &self.device())
            .field("entries", &self.declared_entries())
            .field("bytes", &self.image.len())
            .finish()
    }
}

/// The canonical entry order — descending prefix length, then ascending
/// address — of a table's entries and a patch's outcomes.
pub fn canonical_order(a: Prefix, b: Prefix) -> Ordering {
    b.len().cmp(&a.len()).then(a.addr().cmp(&b.addr()))
}

/// A rule's contents inside a [`PatchOp::Set`].
///
/// Unlike a snapshot entry, locality is carried explicitly, so a patch
/// is lossless even for locally originated rules that record next hops.
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
            if let Err(reason) = check_order(w[0].prefix(), w[1].prefix()) {
                return err(reason);
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

    /// `(prefix, next hops)` pairs, as a table lists them.
    type Entries = Vec<(Prefix, Vec<Ipv4>)>;

    fn write(device: u32, entries: &Entries) -> WireSnapshot {
        WireSnapshot::write(device, entries.iter().map(|(p, h)| (*p, h.as_slice())))
    }

    /// Every entry the reader yields, or its refusal.
    fn entries(s: &WireSnapshot) -> Result<Entries, ParseError> {
        let mut out = Vec::new();
        s.read(|e| out.push((e.prefix, e.next_hops().collect())))?;
        Ok(out)
    }

    /// Read `bytes` as a snapshot, header and entries.
    fn read(bytes: &[u8]) -> Result<Entries, ParseError> {
        entries(&WireSnapshot::from_bytes(bytes)?)
    }

    fn table() -> Entries {
        vec![
            (
                "10.3.129.224/28".parse().unwrap(),
                vec![Ipv4::new(10, 10, 192, 12)],
            ),
            ("10.4.0.0/16".parse().unwrap(), vec![]),
            (
                "0.0.0.0/0".parse().unwrap(),
                vec![Ipv4::new(30, 10, 192, 12), Ipv4::new(30, 10, 192, 16)],
            ),
        ]
    }

    fn snapshot() -> WireSnapshot {
        write(42, &table())
    }

    #[test]
    fn round_trip() {
        let s = snapshot();
        assert_eq!((s.device(), s.declared_entries()), (42, 3));
        assert_eq!(entries(&s).unwrap(), table());
        let back = WireSnapshot::from_bytes(s.as_bytes()).unwrap();
        assert_eq!(back, s);
        // Sharing, not copying: a clone is the same image.
        assert_eq!(s.clone().as_bytes().as_ptr(), s.as_bytes().as_ptr());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = write(0, &Vec::new());
        assert_eq!(read(s.as_bytes()).unwrap(), Vec::new());
        assert_eq!(s.as_bytes().len(), HEADER);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = snapshot().as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(read(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = snapshot().as_bytes().to_vec();
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = snapshot().as_bytes().to_vec();
        bytes.push(0);
        assert!(read(&bytes).is_err());
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
        assert!(FibDelta::decode(snapshot().as_bytes()).is_err());
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
        assert_eq!(frame_kind(snapshot().as_bytes()), Some(FrameKind::Snapshot));
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
        let err = read(&buf).unwrap_err();
        assert!(err.to_string().contains("bad prefix in entry"), "{err}");
    }

    #[test]
    fn every_rejection_names_its_cause() {
        let reason = |bytes: &[u8]| match frame_kind(bytes) {
            Some(FrameKind::Snapshot) => read(bytes).unwrap_err().to_string(),
            _ => FibDelta::decode(bytes).unwrap_err().to_string(),
        };
        let edited = |mut bytes: Vec<u8>, at: usize, with: &[u8]| {
            bytes.splice(at..at + with.len(), with.iter().copied());
            reason(&bytes)
        };
        let (s, d) = (snapshot().as_bytes().to_vec(), delta().encode());
        assert!(reason(&s[..11]).contains("truncated header"));
        assert!(reason(&s[..14]).contains("truncated entry header"));
        assert!(reason(&s[..20]).contains("truncated next-hop list"));
        assert!(reason(&[&s[..], &[0]].concat()).contains("trailing bytes after last entry"));
        // A count no bytes back: refused at the first missing entry.
        assert!(edited(s[..12].to_vec(), 8, &[0xFF; 4]).contains("truncated entry header"));
        // The snapshot's canonical form, entry by entry: the second
        // entry (offset 23, length byte 27) is 10.4.0.0/16, the third
        // (offset 30) the default route with its two hops.
        assert!(edited(s.clone(), 27, &[8]).contains("bad prefix in entry"));
        assert!(edited(s.clone(), 27, &[30]).contains("prefix 10.4.0.0/30 out of order"));
        let twice = write(42, &vec![table()[1].clone(), table()[1].clone()]);
        assert!(reason(twice.as_bytes()).contains("prefix 10.4.0.0/16 named twice"));
        // The default's second hop (offset 41) made equal to its first.
        assert!(edited(s.clone(), 44, &[12])
            .contains("next hops of 0.0.0.0/0 not strictly ascending"));
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

    #[test]
    fn the_image_hash_is_the_table_hash_of_its_entries() {
        let s = snapshot();
        let mut h = TableHasher::new(42, 3);
        for (prefix, hops) in table() {
            h.entry(prefix, hops.is_empty(), hops.into_iter());
        }
        assert_eq!(s.content_hash(), Ok(h.finish()));
        // The device word is hashed; a refused image has no hash.
        assert_ne!(write(43, &table()).content_hash(), s.content_hash());
        let mut reversed = table();
        reversed.reverse();
        assert!(write(42, &reversed).content_hash().is_err());
    }
}
