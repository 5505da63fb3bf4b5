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
//! Incremental pulls ship a [`FibDelta`] instead of a full snapshot:
//! only the rules that changed between two table versions, anchored to
//! the content hashes of both versions so a stale or misapplied delta
//! is detected at application time:
//!
//! ```text
//! magic   : b"FIBD"
//! device  : u32
//! base    : u64   (content hash of the table the delta applies to)
//! target  : u64   (content hash of the table after application)
//! n_add   : u32 | rule * n_add      (rules absent from base)
//! n_mod   : u32 | rule * n_mod      (rules present in both, changed)
//! n_rm    : u32 | (addr u32 | len u8) * n_rm
//! rule    : addr u32 | len u8 | flags u8 | nhops u16 | nhop u32 * nhops
//! ```
//!
//! `flags` bit 0 marks a locally originated rule (full snapshots infer
//! locality from an empty next-hop list; deltas carry it explicitly so
//! applying a delta reproduces the target table bit-for-bit).
//!
//! All integers are big-endian.

use crate::error::ParseError;
use crate::ip::Ipv4;
use crate::prefix::Prefix;

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

/// One changed rule inside a [`FibDelta`]: the rule's new contents.
///
/// Unlike [`WireEntry`], locality is carried explicitly (the `flags`
/// byte on the wire) so delta application is lossless even for locally
/// originated rules that happen to have next hops recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRule {
    /// Destination prefix of the rule.
    pub prefix: Prefix,
    /// The rule's (new) next-hop addresses.
    pub next_hops: Vec<Ipv4>,
    /// The rule is locally originated.
    pub local: bool,
}

/// The difference between two FIB snapshots of one device.
///
/// Anchored by content hashes on both sides: `base_hash` names the
/// table the delta applies to and `new_hash` the table that applying it
/// must produce, so stale deltas are rejected instead of silently
/// corrupting the store (§2.6.1's pipeline pulls continuously; a device
/// can republish between pull and apply).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FibDelta {
    /// Numeric id of the source device.
    pub device: u32,
    /// Content hash of the base table.
    pub base_hash: u64,
    /// Content hash of the table after application.
    pub new_hash: u64,
    /// Rules present only in the new table.
    pub added: Vec<DeltaRule>,
    /// Rules present in both tables whose next hops or locality changed.
    pub modified: Vec<DeltaRule>,
    /// Prefixes whose rules exist only in the base table.
    pub removed: Vec<Prefix>,
}

impl FibDelta {
    /// True when the two tables are identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }

    /// Total number of changed rules.
    pub fn rule_count(&self) -> usize {
        self.added.len() + self.modified.len() + self.removed.len()
    }

    /// Every prefix the delta touches (added, modified, or removed) —
    /// the input to contract-affectedness tests in incremental
    /// revalidation.
    pub fn touched_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.added
            .iter()
            .chain(&self.modified)
            .map(|r| r.prefix)
            .chain(self.removed.iter().copied())
    }

    /// Serialize the delta into a freshly allocated buffer.
    pub fn encode(&self) -> Vec<u8> {
        let rules = self.added.len() + self.modified.len();
        let mut buf = Vec::with_capacity(36 + rules * 16 + self.removed.len() * 5);
        buf.extend_from_slice(DELTA_MAGIC);
        buf.extend_from_slice(&self.device.to_be_bytes());
        buf.extend_from_slice(&self.base_hash.to_be_bytes());
        buf.extend_from_slice(&self.new_hash.to_be_bytes());
        for rules in [&self.added, &self.modified] {
            buf.extend_from_slice(&(rules.len() as u32).to_be_bytes());
            for r in rules {
                put_prefix(&mut buf, r.prefix);
                buf.push(u8::from(r.local));
                put_next_hops(&mut buf, &r.next_hops);
            }
        }
        buf.extend_from_slice(&(self.removed.len() as u32).to_be_bytes());
        for &p in &self.removed {
            put_prefix(&mut buf, p);
        }
        buf
    }

    /// Decode a delta, validating magic, lengths, and prefix
    /// canonicality. Trailing bytes are rejected.
    pub fn decode(buf: &[u8]) -> Result<FibDelta, ParseError> {
        let what = "fib delta";
        let mut cur = Cursor { buf, what };
        cur.need(24, "truncated header")?;
        if &cur.take::<4>() != DELTA_MAGIC {
            return Err(cur.err("bad magic"));
        }
        let (device, base_hash, new_hash) = (cur.u32(), cur.u64(), cur.u64());
        let mut rules = || {
            cur.need(4, "truncated rule count")?;
            let (count, mut rules) = cur.list();
            for _ in 0..count {
                cur.need(8, "truncated rule header")?;
                let (addr, len, flags) = (cur.u32(), cur.u8(), cur.u8());
                if flags > 1 {
                    return Err(cur.err("unknown rule flags"));
                }
                let nh_count = cur.u16();
                let next_hops = cur.next_hops(nh_count)?;
                rules.push(DeltaRule {
                    prefix: cur.prefix(addr, len, "bad prefix in rule")?,
                    next_hops,
                    local: flags == 1,
                });
            }
            Ok(rules)
        };
        let (added, modified) = (rules()?, rules()?);
        cur.need(4, "truncated removal count")?;
        let (count, mut removed) = cur.list();
        for _ in 0..count {
            cur.need(5, "truncated removal")?;
            let (addr, len) = (cur.u32(), cur.u8());
            removed.push(cur.prefix(addr, len, "bad removed prefix")?);
        }
        cur.end("trailing bytes after last removal")?;
        Ok(FibDelta {
            device,
            base_hash,
            new_hash,
            added,
            modified,
            removed,
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
        FibDelta {
            device: 42,
            base_hash: 0xDEAD_BEEF_0BAD_F00D,
            new_hash: 0x1234_5678_9ABC_DEF0,
            added: vec![DeltaRule {
                prefix: "10.3.129.224/28".parse().unwrap(),
                next_hops: vec![Ipv4::new(10, 10, 192, 12), Ipv4::new(10, 10, 192, 16)],
                local: false,
            }],
            modified: vec![
                DeltaRule {
                    prefix: "0.0.0.0/0".parse().unwrap(),
                    next_hops: vec![Ipv4::new(30, 10, 192, 12)],
                    local: false,
                },
                DeltaRule {
                    prefix: "10.4.0.0/16".parse().unwrap(),
                    next_hops: vec![],
                    local: true,
                },
            ],
            removed: vec!["10.9.0.0/16".parse().unwrap()],
        }
    }

    #[test]
    fn delta_round_trip() {
        let d = delta();
        assert_eq!(FibDelta::decode(&d.encode()).unwrap(), d);
        assert_eq!(d.rule_count(), 4);
        assert_eq!(d.touched_prefixes().count(), 4);
        assert!(!d.is_empty());
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
        assert!(d.is_empty());
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
        // First rule's flags byte: magic(4) + device(4) + hashes(16) +
        // add count(4) + addr(4) + len(1) = offset 33.
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
        assert!(reason(&d[..23]).contains("truncated header"));
        assert!(reason(&d[..26]).contains("truncated rule count"));
        assert!(reason(&d[..30]).contains("truncated rule header"));
        assert!(reason(&d[..38]).contains("truncated next-hop list"));
        assert!(reason(&d[..d.len() - 6]).contains("truncated removal count"));
        assert!(reason(&d[..d.len() - 1]).contains("truncated removal"));
        assert!(reason(&[&d[..], &[0]].concat()).contains("trailing bytes after last removal"));
        assert!(edited(d.clone(), 33, &[2]).contains("unknown rule flags"));
        // First rule's length byte (offset 32): a /1 with host bits set.
        assert!(edited(d.clone(), 32, &[1]).contains("bad prefix in rule"));
        assert!(edited(d.clone(), d.len() - 1, &[1]).contains("bad removed prefix"));
    }
}
