//! Property-based tests for the address algebra every engine builds on.

use netprim::{IpRange, Ipv4, PortRange, Prefix};
use proptest::prelude::*;

fn arb_ip() -> impl Strategy<Value = Ipv4> {
    any::<u32>().prop_map(Ipv4)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::containing(Ipv4(addr), len).unwrap())
}

fn arb_range() -> impl Strategy<Value = IpRange> {
    (any::<u32>(), any::<u32>()).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        IpRange::new(Ipv4(lo), Ipv4(hi)).unwrap()
    })
}

proptest! {
    #[test]
    fn ip_display_parse_round_trip(ip in arb_ip()) {
        let back: Ipv4 = ip.to_string().parse().unwrap();
        prop_assert_eq!(ip, back);
    }

    #[test]
    fn prefix_display_parse_round_trip(p in arb_prefix()) {
        let back: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_iff_range_contains(p in arb_prefix(), ip in arb_ip()) {
        prop_assert_eq!(p.contains(ip), p.range().contains(ip));
    }

    #[test]
    fn prefix_size_matches_range(p in arb_prefix()) {
        prop_assert_eq!(p.size(), p.range().size());
        prop_assert!(p.first() <= p.last());
    }

    #[test]
    fn containment_is_transitive(a in arb_prefix(), b in arb_prefix(), c in arb_prefix()) {
        if a.contains_prefix(b) && b.contains_prefix(c) {
            prop_assert!(a.contains_prefix(c));
        }
    }

    #[test]
    fn proper_prefixes_never_partially_overlap(a in arb_prefix(), b in arb_prefix()) {
        // For CIDR prefixes: either disjoint or one contains the other.
        let i = a.range().intersect(b.range());
        match i {
            None => prop_assert!(!a.overlaps(b)),
            Some(_) => prop_assert!(a.contains_prefix(b) || b.contains_prefix(a)),
        }
    }

    #[test]
    fn children_partition_parent(p in arb_prefix()) {
        if let Some((l, r)) = p.children() {
            prop_assert_eq!(l.parent().unwrap(), p);
            prop_assert_eq!(r.parent().unwrap(), p);
            prop_assert_eq!(l.size() + r.size(), p.size());
            prop_assert!(!l.overlaps(r));
            prop_assert_eq!(l.first(), p.first());
            prop_assert_eq!(r.last(), p.last());
        }
    }

    #[test]
    fn range_to_prefixes_is_exact_cover(r in arb_range()) {
        let prefixes = r.to_prefixes();
        // Contiguous, in order, exactly covering the range.
        let mut cursor = r.start();
        for p in &prefixes {
            prop_assert_eq!(p.first(), cursor);
            cursor = p.last().saturating_next();
        }
        if r.end() != Ipv4::MAX {
            prop_assert_eq!(cursor, r.end().checked_next().unwrap());
        } else {
            prop_assert_eq!(cursor, Ipv4::MAX);
        }
        let total: u64 = prefixes.iter().map(|p| p.size()).sum();
        prop_assert_eq!(total, r.size());
        // Minimality bound: a range decomposes into at most 62 prefixes.
        prop_assert!(prefixes.len() <= 62);
    }

    #[test]
    fn subtract_then_sum_sizes(a in arb_range(), b in arb_range()) {
        let parts = a.subtract(b);
        let cut = a.intersect(b).map_or(0, |i| i.size());
        let total: u64 = parts.iter().map(|p| p.size()).sum();
        prop_assert_eq!(total + cut, a.size());
        for p in &parts {
            prop_assert!(a.contains_range(*p));
            prop_assert!(p.intersect(b).is_none());
        }
    }

    #[test]
    fn intersect_commutes_and_is_contained(a in arb_range(), b in arb_range()) {
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        if let Some(i) = a.intersect(b) {
            prop_assert!(a.contains_range(i));
            prop_assert!(b.contains_range(i));
        }
    }

    #[test]
    fn port_range_intersection(a in any::<(u16, u16)>(), b in any::<(u16, u16)>()) {
        let mk = |(x, y): (u16, u16)| {
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            PortRange::new(lo, hi).unwrap()
        };
        let (ra, rb) = (mk(a), mk(b));
        match ra.intersect(rb) {
            Some(i) => {
                prop_assert!(ra.contains_range(i) && rb.contains_range(i));
                prop_assert!(ra.overlaps(rb));
            }
            None => prop_assert!(!ra.overlaps(rb)),
        }
    }

    #[test]
    fn wire_round_trip_random_tables(
        entries in proptest::collection::vec(
            (arb_prefix(), proptest::collection::vec(any::<u32>(), 0..6)),
            0..40,
        ),
        device in any::<u32>(),
    ) {
        use netprim::wire::{canonical_order, WireSnapshot};
        // A table's entries: canonical order, each prefix once, hops
        // strictly ascending.
        let mut table: Vec<(Prefix, Vec<Ipv4>)> = entries
            .into_iter()
            .map(|(prefix, mut hops)| {
                hops.sort_unstable();
                hops.dedup();
                (prefix, hops.into_iter().map(Ipv4).collect())
            })
            .collect();
        table.sort_by(|a, b| canonical_order(a.0, b.0));
        table.dedup_by_key(|e| e.0);
        let snapshot = WireSnapshot::write(device, table.iter().map(|(p, h)| (*p, h.as_slice())));
        let back = WireSnapshot::from_bytes(snapshot.as_bytes()).unwrap();
        let mut read = Vec::new();
        back.read(|e| read.push((e.prefix, e.next_hops().collect::<Vec<_>>()))).unwrap();
        prop_assert_eq!((back.device(), read), (device, table));
        prop_assert!(back.content_hash().is_ok());
    }
}
