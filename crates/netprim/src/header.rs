//! Packet headers and header spaces.
//!
//! SecGuru interprets policies over the 5-tuple
//! `⟨srcIp, srcPort, dstIp, dstPort, protocol⟩` (paper §3.2). A
//! [`HeaderTuple`] is one concrete packet header; a [`HeaderSpace`] is a
//! rectangular set of headers — the packet filter of one ACL/NSG rule
//! or one contract.

use crate::error::ParseError;
use crate::ip::Ipv4;
use crate::prefix::Prefix;
use crate::range::{IpRange, PortRange};
use std::fmt;
use std::str::FromStr;

/// IP protocol selector for a rule.
///
/// `Any` is the wildcard (Cisco `ip`, NSG `Any`); the named variants
/// carry their IANA protocol numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Matches every protocol number.
    Any,
    /// ICMP, protocol 1.
    Icmp,
    /// TCP, protocol 6.
    Tcp,
    /// UDP, protocol 17.
    Udp,
    /// An explicit protocol number (e.g. `53`, `55` in edge ACLs, §3.1).
    Number(u8),
}

impl Protocol {
    /// The protocol number, or `None` for the wildcard.
    pub const fn number(self) -> Option<u8> {
        match self {
            Protocol::Any => None,
            Protocol::Icmp => Some(1),
            Protocol::Tcp => Some(6),
            Protocol::Udp => Some(17),
            Protocol::Number(n) => Some(n),
        }
    }

    /// Does this selector match a concrete protocol number?
    pub const fn matches(self, proto: u8) -> bool {
        match self.number() {
            None => true,
            Some(n) => n == proto,
        }
    }

    /// Canonicalize: named variants for 1/6/17, `Number` otherwise.
    pub const fn canonical(self) -> Protocol {
        match self.number() {
            None => Protocol::Any,
            Some(1) => Protocol::Icmp,
            Some(6) => Protocol::Tcp,
            Some(17) => Protocol::Udp,
            Some(n) => Protocol::Number(n),
        }
    }

    /// Is this a protocol that carries ports (TCP/UDP)?
    pub const fn has_ports(self) -> bool {
        matches!(self.number(), Some(6) | Some(17) | None)
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Any => write!(f, "ip"),
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Number(n) => write!(f, "{n}"),
        }
    }
}

impl FromStr for Protocol {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ip" | "any" | "*" => Ok(Protocol::Any),
            "icmp" => Ok(Protocol::Icmp),
            "tcp" => Ok(Protocol::Tcp),
            "udp" => Ok(Protocol::Udp),
            other => other
                .parse::<u8>()
                .map(|n| Protocol::Number(n).canonical())
                .map_err(|_| ParseError::new("protocol", s, "unknown protocol name")),
        }
    }
}

/// One concrete packet header: the 5-tuple SecGuru reasons over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeaderTuple {
    /// Source IP address.
    pub src_ip: Ipv4,
    /// Source transport port.
    pub src_port: u16,
    /// Destination IP address.
    pub dst_ip: Ipv4,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

impl fmt::Display for HeaderTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

/// A rectangular set of headers: the packet filter of one rule or
/// contract. Each dimension is an independent range; a header is in
/// the space iff every dimension matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeaderSpace {
    /// Permissible source addresses.
    pub src: IpRange,
    /// Permissible source ports.
    pub src_ports: PortRange,
    /// Permissible destination addresses.
    pub dst: IpRange,
    /// Permissible destination ports.
    pub dst_ports: PortRange,
    /// Protocol selector.
    pub protocol: Protocol,
}

impl HeaderSpace {
    /// The full header space — every packet.
    pub const ALL: HeaderSpace = HeaderSpace {
        src: IpRange::ALL,
        src_ports: PortRange::ALL,
        dst: IpRange::ALL,
        dst_ports: PortRange::ALL,
        protocol: Protocol::Any,
    };

    /// All traffic to a destination prefix, any ports/protocol.
    pub fn to_dst(prefix: Prefix) -> Self {
        HeaderSpace {
            dst: prefix.range(),
            ..HeaderSpace::ALL
        }
    }

    /// All traffic from a source prefix, any ports/protocol.
    pub fn from_src(prefix: Prefix) -> Self {
        HeaderSpace {
            src: prefix.range(),
            ..HeaderSpace::ALL
        }
    }

    /// Does this space contain the given concrete header?
    pub fn contains(&self, h: &HeaderTuple) -> bool {
        self.src.contains(h.src_ip)
            && self.src_ports.contains(h.src_port)
            && self.dst.contains(h.dst_ip)
            && self.dst_ports.contains(h.dst_port)
            && self.protocol.matches(h.protocol)
    }

    /// Is every header of `other` inside `self`?
    pub fn contains_space(&self, other: &HeaderSpace) -> bool {
        let proto_ok = match (self.protocol.number(), other.protocol.number()) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a == b,
        };
        proto_ok
            && self.src.contains_range(other.src)
            && self.src_ports.contains_range(other.src_ports)
            && self.dst.contains_range(other.dst)
            && self.dst_ports.contains_range(other.dst_ports)
    }

    /// The intersection of two spaces, if non-empty. Rectangles are
    /// closed under intersection, which is what makes the interval
    /// baseline engine complete.
    pub fn intersect(&self, other: &HeaderSpace) -> Option<HeaderSpace> {
        let protocol = match (self.protocol.number(), other.protocol.number()) {
            (None, _) => other.protocol,
            (_, None) => self.protocol,
            (Some(a), Some(b)) if a == b => self.protocol,
            _ => return None,
        };
        Some(HeaderSpace {
            src: self.src.intersect(other.src)?,
            src_ports: self.src_ports.intersect(other.src_ports)?,
            dst: self.dst.intersect(other.dst)?,
            dst_ports: self.dst_ports.intersect(other.dst_ports)?,
            protocol,
        })
    }

    /// Number of concrete headers in this space, as u128 (the full
    /// space holds 2^104 headers when the protocol is a wildcard).
    pub fn size(&self) -> u128 {
        let proto = match self.protocol.number() {
            None => 256u128,
            Some(_) => 1,
        };
        self.src.size() as u128
            * self.src_ports.size() as u128
            * self.dst.size() as u128
            * self.dst_ports.size() as u128
            * proto
    }

    /// An arbitrary concrete header inside the space (its lowest corner).
    pub fn sample(&self) -> HeaderTuple {
        HeaderTuple {
            src_ip: self.src.start(),
            src_port: self.src_ports.start(),
            dst_ip: self.dst.start(),
            dst_port: self.dst_ports.start(),
            protocol: self.protocol.number().unwrap_or(0),
        }
    }
}

impl fmt::Display for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} src {} ports {} -> dst {} ports {}",
            self.protocol, self.src, self.src_ports, self.dst, self.dst_ports
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(dst: &str) -> HeaderSpace {
        HeaderSpace::to_dst(dst.parse().unwrap())
    }

    #[test]
    fn protocol_numbers_and_parsing() {
        assert_eq!("ip".parse::<Protocol>().unwrap(), Protocol::Any);
        assert_eq!("tcp".parse::<Protocol>().unwrap(), Protocol::Tcp);
        assert_eq!("udp".parse::<Protocol>().unwrap(), Protocol::Udp);
        assert_eq!("icmp".parse::<Protocol>().unwrap(), Protocol::Icmp);
        assert_eq!("53".parse::<Protocol>().unwrap(), Protocol::Number(53));
        // Numeric aliases canonicalize to the named variants.
        assert_eq!("6".parse::<Protocol>().unwrap(), Protocol::Tcp);
        assert_eq!("17".parse::<Protocol>().unwrap(), Protocol::Udp);
        assert_eq!("1".parse::<Protocol>().unwrap(), Protocol::Icmp);
        assert!("bogus".parse::<Protocol>().is_err());
        assert!("300".parse::<Protocol>().is_err());
    }

    #[test]
    fn protocol_matching() {
        assert!(Protocol::Any.matches(6));
        assert!(Protocol::Any.matches(200));
        assert!(Protocol::Tcp.matches(6));
        assert!(!Protocol::Tcp.matches(17));
        assert!(Protocol::Number(53).matches(53));
    }

    #[test]
    fn header_membership() {
        let s = space("10.0.0.0/8");
        let inside = HeaderTuple {
            src_ip: Ipv4::new(1, 2, 3, 4),
            src_port: 1000,
            dst_ip: Ipv4::new(10, 200, 0, 1),
            dst_port: 443,
            protocol: 6,
        };
        let outside = HeaderTuple {
            dst_ip: Ipv4::new(11, 0, 0, 1),
            ..inside
        };
        assert!(s.contains(&inside));
        assert!(!s.contains(&outside));
    }

    #[test]
    fn space_containment() {
        let big = space("10.0.0.0/8");
        let small = space("10.20.0.0/16");
        assert!(big.contains_space(&small));
        assert!(!small.contains_space(&big));
        assert!(HeaderSpace::ALL.contains_space(&big));
        // A wildcard-protocol space is not contained in a TCP-only one.
        let tcp_only = HeaderSpace {
            protocol: Protocol::Tcp,
            ..big
        };
        assert!(!tcp_only.contains_space(&big));
        assert!(big.contains_space(&tcp_only));
    }

    #[test]
    fn space_intersection() {
        let a = HeaderSpace {
            protocol: Protocol::Tcp,
            dst_ports: PortRange::new(0, 1023).unwrap(),
            ..HeaderSpace::ALL
        };
        let b = HeaderSpace {
            protocol: Protocol::Any,
            dst_ports: PortRange::new(400, 500).unwrap(),
            ..space("10.0.0.0/8")
        };
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.protocol, Protocol::Tcp);
        assert_eq!(i.dst_ports, PortRange::new(400, 500).unwrap());
        assert_eq!(i.dst, "10.0.0.0/8".parse::<Prefix>().unwrap().range());

        let udp = HeaderSpace {
            protocol: Protocol::Udp,
            ..HeaderSpace::ALL
        };
        assert!(a.intersect(&udp).is_none());
    }

    #[test]
    fn size_of_full_space() {
        assert_eq!(HeaderSpace::ALL.size(), 1u128 << 104);
        let single = HeaderSpace {
            src: IpRange::single(Ipv4::ZERO),
            src_ports: PortRange::single(1),
            dst: IpRange::single(Ipv4::ZERO),
            dst_ports: PortRange::single(2),
            protocol: Protocol::Tcp,
        };
        assert_eq!(single.size(), 1);
    }

    #[test]
    fn sample_is_member() {
        let s = HeaderSpace {
            protocol: Protocol::Udp,
            ..space("10.3.129.224/28")
        };
        assert!(s.contains(&s.sample()));
    }
}
