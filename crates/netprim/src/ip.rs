//! IPv4 addresses as transparent 32-bit values.
//!
//! We deliberately use our own newtype instead of [`std::net::Ipv4Addr`]:
//! every engine in this workspace (the trie walker, the bit-blaster, the
//! interval analyzer) treats addresses as unsigned 32-bit integers, and a
//! `u32` newtype makes those conversions free and explicit.

use crate::error::ParseError;
use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
///
/// Ordering and comparison follow the unsigned integer interpretation,
/// which is exactly the ordering used in bit-vector contract encodings
/// (`10.0.0.0 <= x <= 10.255.255.255`, paper §2.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// The unspecified address `0.0.0.0`.
    pub const ZERO: Ipv4 = Ipv4(0);
    /// The maximum address `255.255.255.255`.
    pub const MAX: Ipv4 = Ipv4(u32::MAX);

    /// Build an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Saturating successor; `255.255.255.255` maps to itself.
    pub const fn saturating_next(self) -> Ipv4 {
        Ipv4(self.0.saturating_add(1))
    }

    /// Checked successor, `None` at the top of the space.
    pub const fn checked_next(self) -> Option<Ipv4> {
        match self.0.checked_add(1) {
            Some(v) => Some(Ipv4(v)),
            None => None,
        }
    }

    /// Checked predecessor, `None` at `0.0.0.0`.
    pub const fn checked_prev(self) -> Option<Ipv4> {
        match self.0.checked_sub(1) {
            Some(v) => Some(Ipv4(v)),
            None => None,
        }
    }
}

impl From<u32> for Ipv4 {
    fn from(v: u32) -> Self {
        Ipv4(v)
    }
}

impl From<Ipv4> for u32 {
    fn from(v: Ipv4) -> Self {
        v.0
    }
}

impl From<[u8; 4]> for Ipv4 {
    fn from(o: [u8; 4]) -> Self {
        Ipv4::new(o[0], o[1], o[2], o[3])
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for Ipv4 {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: &str| ParseError::new("ipv4 address", s, reason);
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or_else(|| err("expected four octets"))?;
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err("octet must be 1-3 decimal digits"));
            }
            if part.len() > 1 && part.starts_with('0') {
                return Err(err("octet has a leading zero"));
            }
            *slot = part
                .parse::<u8>()
                .map_err(|_| err("octet exceeds 255"))?;
        }
        if parts.next().is_some() {
            return Err(err("more than four octets"));
        }
        Ok(Ipv4::from(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_display_parse() {
        for raw in [0u32, 1, 0x0a00_0001, 0xc0a8_0101, u32::MAX] {
            let ip = Ipv4(raw);
            let back: Ipv4 = ip.to_string().parse().unwrap();
            assert_eq!(ip, back);
        }
    }

    #[test]
    fn parse_dotted_quad() {
        assert_eq!("10.20.30.40".parse::<Ipv4>().unwrap(), Ipv4::new(10, 20, 30, 40));
        assert_eq!("0.0.0.0".parse::<Ipv4>().unwrap(), Ipv4::ZERO);
        assert_eq!("255.255.255.255".parse::<Ipv4>().unwrap(), Ipv4::MAX);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x", "01.2.3.4", "1..2.3", " 1.2.3.4",
            "1.2.3.4 ", "1,2,3,4", "1.2.3.1000",
        ] {
            assert!(bad.parse::<Ipv4>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn ordering_matches_integer_ordering() {
        assert!(Ipv4::new(10, 0, 0, 0) < Ipv4::new(10, 0, 0, 1));
        assert!(Ipv4::new(10, 255, 255, 255) < Ipv4::new(11, 0, 0, 0));
        assert!(Ipv4::new(128, 0, 0, 0) > Ipv4::new(127, 255, 255, 255));
    }

    #[test]
    fn successors_and_predecessors() {
        assert_eq!(Ipv4::ZERO.checked_prev(), None);
        assert_eq!(Ipv4::MAX.checked_next(), None);
        assert_eq!(Ipv4::MAX.saturating_next(), Ipv4::MAX);
        assert_eq!(
            Ipv4::new(10, 0, 0, 255).checked_next(),
            Some(Ipv4::new(10, 0, 1, 0))
        );
    }

    #[test]
    fn octets_round_trip() {
        let ip = Ipv4::new(1, 2, 3, 4);
        assert_eq!(ip.octets(), [1, 2, 3, 4]);
        assert_eq!(Ipv4::from(ip.octets()), ip);
    }
}
