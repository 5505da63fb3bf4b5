//! CIDR prefixes in canonical form.
//!
//! A [`Prefix`] is the unit of both routing (FIB entries, paper §2.2)
//! and intent (contracts, §2.4). The trie-based verification algorithm
//! (§2.5.2) relies on prefixes forming a containment partial order, so
//! the type exposes `contains_prefix`, `extends`, and sibling/parent
//! navigation directly.

use crate::error::ParseError;
use crate::ip::Ipv4;
use crate::range::IpRange;
use std::fmt;
use std::str::FromStr;

/// A canonical CIDR prefix: a network address plus a mask length.
///
/// Canonical means all host bits are zero; [`Prefix::new`] rejects
/// non-canonical inputs so two equal address ranges always compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4,
    len: u8,
}

impl Prefix {
    /// The default prefix `0.0.0.0/0`, covering the entire address space.
    pub const DEFAULT: Prefix = Prefix {
        addr: Ipv4::ZERO,
        len: 0,
    };

    /// Construct a prefix, rejecting masks longer than 32 bits and
    /// addresses with non-zero host bits.
    pub fn new(addr: Ipv4, len: u8) -> Result<Self, ParseError> {
        if len > 32 {
            return Err(ParseError::new(
                "prefix",
                format!("{addr}/{len}"),
                "mask length exceeds 32",
            ));
        }
        let p = Prefix { addr, len };
        if addr.0 & !p.mask() != 0 {
            return Err(ParseError::new(
                "prefix",
                format!("{addr}/{len}"),
                "host bits are not zero (non-canonical prefix)",
            ));
        }
        Ok(p)
    }

    /// Construct a prefix from any address inside it, zeroing host bits.
    pub fn containing(addr: Ipv4, len: u8) -> Result<Self, ParseError> {
        if len > 32 {
            return Err(ParseError::new(
                "prefix",
                format!("{addr}/{len}"),
                "mask length exceeds 32",
            ));
        }
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        Ok(Prefix {
            addr: Ipv4(addr.0 & mask),
            len,
        })
    }

    /// A host route (`/32`) for a single address.
    pub const fn host(addr: Ipv4) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The network address.
    pub const fn addr(self) -> Ipv4 {
        self.addr
    }

    /// The mask length in bits.
    ///
    /// (Not a container length — `/0` is the default route, not an
    /// "empty" prefix — so there is deliberately no `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// True only for the default prefix `0.0.0.0/0`.
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The netmask as a `u32` (e.g. `/24` → `0xffff_ff00`).
    pub const fn mask(self) -> u32 {
        if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - self.len)
        }
    }

    /// First address covered.
    pub const fn first(self) -> Ipv4 {
        self.addr
    }

    /// Last address covered (broadcast address for the prefix).
    pub const fn last(self) -> Ipv4 {
        Ipv4(self.addr.0 | !self.mask())
    }

    /// Number of addresses covered, as `u64` so `/0` does not overflow.
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Does this prefix cover the given address?
    pub const fn contains(self, ip: Ipv4) -> bool {
        ip.0 & self.mask() == self.addr.0
    }

    /// Does this prefix cover every address of `other`?
    ///
    /// `a.contains_prefix(b)` is the `b.prefix ⊆ a.range` test used when
    /// selecting candidate rules for a contract (paper §2.5.2).
    pub const fn contains_prefix(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Is this prefix a strict extension (longer, contained) of `other`?
    pub const fn extends(self, other: Prefix) -> bool {
        self.len > other.len && other.contains(self.addr)
    }

    /// Do the two prefixes share any address? For proper prefixes this
    /// is equivalent to one containing the other.
    pub const fn overlaps(self, other: Prefix) -> bool {
        self.contains_prefix(other) || other.contains_prefix(self)
    }

    /// The covering prefix one bit shorter, or `None` for `/0`.
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        Some(Prefix::containing(self.addr, self.len - 1).expect("len-1 <= 32"))
    }

    /// The two halves of this prefix, or `None` for `/32`.
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        if self.len == 32 {
            return None;
        }
        let left = Prefix {
            addr: self.addr,
            len: self.len + 1,
        };
        let right = Prefix {
            addr: Ipv4(self.addr.0 | (1 << (31 - self.len))),
            len: self.len + 1,
        };
        Some((left, right))
    }

    /// The value of the address bit at `index` (0 = most significant).
    ///
    /// Used by longest-prefix-match tries to choose a branch.
    pub const fn bit(self, index: u8) -> bool {
        (self.addr.0 >> (31 - index)) & 1 == 1
    }

    /// The inclusive address range covered by this prefix.
    pub const fn range(self) -> IpRange {
        IpRange::new_unchecked(self.first(), self.last())
    }

    /// Enumerate the `2^(target_len - self.len)` subnets of a given
    /// longer mask length. Panics if `target_len` is shorter than `len`
    /// or above 32; intended for topology generation, not hot paths.
    pub fn subnets(self, target_len: u8) -> impl Iterator<Item = Prefix> {
        assert!(target_len >= self.len && target_len <= 32);
        let count = 1u64 << (target_len - self.len);
        let step = 1u64 << (32 - target_len);
        let base = self.addr.0 as u64;
        (0..count).map(move |i| Prefix {
            addr: Ipv4((base + i * step) as u32),
            len: target_len,
        })
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| ParseError::new("prefix", s, "missing '/<len>'"))?;
        let addr: Ipv4 = addr_s.parse()?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| ParseError::new("prefix", s, "mask length is not a number"))?;
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "10.3.129.224/28", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn new_rejects_noncanonical() {
        assert!(Prefix::new(Ipv4::new(10, 0, 0, 1), 8).is_err());
        assert!(Prefix::new(Ipv4::new(10, 0, 0, 0), 33).is_err());
        assert!("10.0.0.1/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn containing_canonicalizes() {
        let q = Prefix::containing(Ipv4::new(10, 1, 2, 3), 8).unwrap();
        assert_eq!(q, p("10.0.0.0/8"));
        let d = Prefix::containing(Ipv4::new(10, 1, 2, 3), 0).unwrap();
        assert_eq!(d, Prefix::DEFAULT);
    }

    #[test]
    fn first_last_size() {
        let q = p("10.3.129.224/28");
        assert_eq!(q.first(), Ipv4::new(10, 3, 129, 224));
        assert_eq!(q.last(), Ipv4::new(10, 3, 129, 239));
        assert_eq!(q.size(), 16);
        assert_eq!(Prefix::DEFAULT.size(), 1u64 << 32);
        assert_eq!(Prefix::DEFAULT.last(), Ipv4::MAX);
    }

    #[test]
    fn containment_relations() {
        let eight = p("10.0.0.0/8");
        let sixteen = p("10.20.0.0/16");
        let other = p("11.0.0.0/8");
        assert!(eight.contains_prefix(sixteen));
        assert!(!sixteen.contains_prefix(eight));
        assert!(sixteen.extends(eight));
        assert!(!eight.extends(eight));
        assert!(eight.contains_prefix(eight));
        assert!(!eight.overlaps(other));
        assert!(eight.overlaps(sixteen));
        assert!(Prefix::DEFAULT.contains_prefix(eight));
    }

    #[test]
    fn contains_addresses_at_boundaries() {
        let q = p("192.168.4.0/22");
        assert!(q.contains(Ipv4::new(192, 168, 4, 0)));
        assert!(q.contains(Ipv4::new(192, 168, 7, 255)));
        assert!(!q.contains(Ipv4::new(192, 168, 8, 0)));
        assert!(!q.contains(Ipv4::new(192, 168, 3, 255)));
    }

    #[test]
    fn parent_child_navigation() {
        let q = p("10.0.0.0/8");
        let (l, r) = q.children().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, p("10.128.0.0/9"));
        assert_eq!(l.parent().unwrap(), q);
        assert_eq!(r.parent().unwrap(), q);
        assert_eq!(Prefix::DEFAULT.parent(), None);
        assert_eq!(Prefix::host(Ipv4::MAX).children(), None);
    }

    #[test]
    fn bit_indexing() {
        let q = p("128.0.0.0/1");
        assert!(q.bit(0));
        let q = p("64.0.0.0/2");
        assert!(!q.bit(0));
        assert!(q.bit(1));
    }

    #[test]
    fn subnet_enumeration() {
        let subs: Vec<_> = p("10.0.0.0/22").subnets(24).collect();
        assert_eq!(
            subs,
            vec![
                p("10.0.0.0/24"),
                p("10.0.1.0/24"),
                p("10.0.2.0/24"),
                p("10.0.3.0/24")
            ]
        );
        let identity: Vec<_> = p("10.0.0.0/24").subnets(24).collect();
        assert_eq!(identity, vec![p("10.0.0.0/24")]);
    }

    #[test]
    fn range_conversion() {
        let r = p("10.0.0.0/30").range();
        assert_eq!(r.start(), Ipv4::new(10, 0, 0, 0));
        assert_eq!(r.end(), Ipv4::new(10, 0, 0, 3));
    }
}
