//! Inclusive ranges over addresses and ports.
//!
//! ACL rules describe packet sets as products of ranges (paper §3.1:
//! "permissible values for source and destination addresses, source and
//! destination ports, and protocol"). The interval-analysis baseline
//! engine in `secguru` computes over these directly; the SMT engine
//! encodes them as bit-vector comparisons.

use crate::error::ParseError;
use crate::ip::Ipv4;
use crate::prefix::Prefix;
use std::fmt;

/// An inclusive range of IPv4 addresses `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpRange {
    start: Ipv4,
    end: Ipv4,
}

impl IpRange {
    /// The full address space `0.0.0.0 - 255.255.255.255`.
    pub const ALL: IpRange = IpRange {
        start: Ipv4::ZERO,
        end: Ipv4::MAX,
    };

    /// Construct a range; errors if `start > end`.
    pub fn new(start: Ipv4, end: Ipv4) -> Result<Self, ParseError> {
        if start > end {
            return Err(ParseError::new(
                "ip range",
                format!("{start}-{end}"),
                "start exceeds end",
            ));
        }
        Ok(IpRange { start, end })
    }

    /// `const` constructor for callers that guarantee `start <= end`
    /// structurally (e.g. [`Prefix::range`]).
    pub const fn new_unchecked(start: Ipv4, end: Ipv4) -> Self {
        IpRange { start, end }
    }

    /// A single-address range.
    pub const fn single(ip: Ipv4) -> Self {
        IpRange { start: ip, end: ip }
    }

    /// First address.
    pub const fn start(self) -> Ipv4 {
        self.start
    }

    /// Last address.
    pub const fn end(self) -> Ipv4 {
        self.end
    }

    /// Number of addresses (up to 2^32, hence `u64`).
    pub const fn size(self) -> u64 {
        (self.end.0 as u64) - (self.start.0 as u64) + 1
    }

    /// Does the range contain this address?
    pub const fn contains(self, ip: Ipv4) -> bool {
        self.start.0 <= ip.0 && ip.0 <= self.end.0
    }

    /// Is `other` fully inside `self`?
    pub const fn contains_range(self, other: IpRange) -> bool {
        self.start.0 <= other.start.0 && other.end.0 <= self.end.0
    }

    /// Do the two ranges share any address?
    pub const fn overlaps(self, other: IpRange) -> bool {
        self.start.0 <= other.end.0 && other.start.0 <= self.end.0
    }

    /// The common sub-range, if any.
    pub fn intersect(self, other: IpRange) -> Option<IpRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start <= end).then_some(IpRange { start, end })
    }

    /// The addresses of `self` not covered by `other`: zero, one, or
    /// two residual ranges.
    pub fn subtract(self, other: IpRange) -> Vec<IpRange> {
        let mut out = Vec::new();
        let Some(mid) = self.intersect(other) else {
            return vec![self];
        };
        if self.start < mid.start {
            out.push(IpRange {
                start: self.start,
                end: Ipv4(mid.start.0 - 1),
            });
        }
        if mid.end < self.end {
            out.push(IpRange {
                start: Ipv4(mid.end.0 + 1),
                end: self.end,
            });
        }
        out
    }

    /// Decompose the range into the minimal list of CIDR prefixes that
    /// exactly covers it, in address order. Standard greedy alignment
    /// algorithm; used when converting legacy range-based rules into
    /// prefix rules during ACL refactoring.
    pub fn to_prefixes(self) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut cur = self.start.0 as u64;
        let end = self.end.0 as u64;
        while cur <= end {
            // Largest block aligned at `cur`…
            let align = if cur == 0 { 32 } else { cur.trailing_zeros().min(32) };
            // …that does not run past `end`.
            let remaining = end - cur + 1;
            let fit = 63 - remaining.leading_zeros(); // floor(log2(remaining))
            let bits = align.min(fit);
            out.push(
                Prefix::new(Ipv4(cur as u32), (32 - bits) as u8)
                    .expect("aligned block is canonical"),
            );
            cur += 1u64 << bits;
        }
        out
    }
}

impl From<Prefix> for IpRange {
    fn from(p: Prefix) -> Self {
        p.range()
    }
}

impl fmt::Display for IpRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.start, self.end)
    }
}

/// An inclusive range of transport-layer ports `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRange {
    start: u16,
    end: u16,
}

impl PortRange {
    /// All ports, `0-65535` — the meaning of `Any` in NSG rules (§3.1).
    pub const ALL: PortRange = PortRange {
        start: 0,
        end: u16::MAX,
    };

    /// Construct a range; errors if `start > end`.
    pub fn new(start: u16, end: u16) -> Result<Self, ParseError> {
        if start > end {
            return Err(ParseError::new(
                "port range",
                format!("{start}-{end}"),
                "start exceeds end",
            ));
        }
        Ok(PortRange { start, end })
    }

    /// A single port.
    pub const fn single(port: u16) -> Self {
        PortRange {
            start: port,
            end: port,
        }
    }

    /// First port.
    pub const fn start(self) -> u16 {
        self.start
    }

    /// Last port.
    pub const fn end(self) -> u16 {
        self.end
    }

    /// Number of ports covered.
    pub const fn size(self) -> u32 {
        (self.end as u32) - (self.start as u32) + 1
    }

    /// Does the range contain this port?
    pub const fn contains(self, port: u16) -> bool {
        self.start <= port && port <= self.end
    }

    /// Is `other` fully inside `self`?
    pub const fn contains_range(self, other: PortRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Do the two ranges share any port?
    pub const fn overlaps(self, other: PortRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The common sub-range, if any.
    pub fn intersect(self, other: PortRange) -> Option<PortRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start <= end).then_some(PortRange { start, end })
    }
}

impl fmt::Display for PortRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start == self.end {
            write!(f, "{}", self.start)
        } else if *self == PortRange::ALL {
            write!(f, "any")
        } else {
            write!(f, "{}-{}", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: u32, b: u32) -> IpRange {
        IpRange::new(Ipv4(a), Ipv4(b)).unwrap()
    }

    #[test]
    fn construction_validates_order() {
        assert!(IpRange::new(Ipv4(5), Ipv4(4)).is_err());
        assert!(PortRange::new(100, 99).is_err());
        assert!(IpRange::new(Ipv4(4), Ipv4(4)).is_ok());
    }

    #[test]
    fn sizes() {
        assert_eq!(IpRange::ALL.size(), 1u64 << 32);
        assert_eq!(r(10, 19).size(), 10);
        assert_eq!(PortRange::ALL.size(), 1 << 16);
        assert_eq!(PortRange::single(80).size(), 1);
    }

    #[test]
    fn intersection() {
        assert_eq!(r(0, 10).intersect(r(5, 20)), Some(r(5, 10)));
        assert_eq!(r(0, 10).intersect(r(11, 20)), None);
        assert_eq!(r(0, 10).intersect(r(10, 20)), Some(r(10, 10)));
        assert_eq!(
            PortRange::new(0, 100).unwrap().intersect(PortRange::single(445)),
            None
        );
    }

    #[test]
    fn subtraction_produces_residuals() {
        assert_eq!(r(0, 10).subtract(r(3, 6)), vec![r(0, 2), r(7, 10)]);
        assert_eq!(r(0, 10).subtract(r(0, 10)), vec![]);
        assert_eq!(r(0, 10).subtract(r(0, 4)), vec![r(5, 10)]);
        assert_eq!(r(0, 10).subtract(r(20, 30)), vec![r(0, 10)]);
        assert_eq!(r(0, 10).subtract(IpRange::ALL), vec![]);
    }

    #[test]
    fn prefix_decomposition_exact_block() {
        let q: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(IpRange::from(q).to_prefixes(), vec![q]);
        assert_eq!(IpRange::ALL.to_prefixes(), vec![Prefix::DEFAULT]);
    }

    #[test]
    fn prefix_decomposition_unaligned() {
        // 10.0.0.1 - 10.0.0.6 = /32 + /31 + /31 + /32? No:
        // 1 -> /32, 2-3 -> /31, 4-5 -> /31, 6 -> /32
        let got = r(0x0a000001, 0x0a000006).to_prefixes();
        let expect: Vec<Prefix> = ["10.0.0.1/32", "10.0.0.2/31", "10.0.0.4/31", "10.0.0.6/32"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn prefix_decomposition_covers_exactly() {
        let range = r(0x0a0000fd, 0x0a000203);
        let prefixes = range.to_prefixes();
        let total: u64 = prefixes.iter().map(|p| p.size()).sum();
        assert_eq!(total, range.size());
        // Contiguous and in order.
        let mut cursor = range.start();
        for p in &prefixes {
            assert_eq!(p.first(), cursor);
            cursor = p.last().saturating_next();
        }
        assert_eq!(cursor, range.end().saturating_next());
    }

    #[test]
    fn port_display() {
        assert_eq!(PortRange::single(445).to_string(), "445");
        assert_eq!(PortRange::ALL.to_string(), "any");
        assert_eq!(PortRange::new(80, 88).unwrap().to_string(), "80-88");
    }
}
