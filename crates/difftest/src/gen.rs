//! Shared random-case builders for the forwarding-engine oracles.
//!
//! The universe is deliberately tiny: FIB prefixes live under
//! `10.0.0.0/24` (plus the default route), next hops come from a
//! six-address pool, and contract prefixes are at most 256 addresses
//! wide. Small universes force collisions — overlapping rules, shadowed
//! extensions, partially covered contracts — which is where engines
//! disagree; and they keep the exhaustive per-address ground truth
//! affordable.

use bgpsim::{Fib, FibBuilder};
use dctopo::DeviceId;
use netprim::{Ipv4, Prefix};
use rcdc::contracts::Expectation;
use rcdc::{ContractKind, DeviceContracts};
use simnet::rng::Rng;
use std::collections::HashSet;

/// The base of the address universe (`10.0.0.0/24`).
const BASE: u32 = 0x0a00_0000;

/// One generated FIB rule, kept as plain data so cases print cleanly
/// and shrink element-by-element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FibSpec {
    pub(crate) prefix: Prefix,
    pub(crate) hops: Vec<Ipv4>,
    pub(crate) local: bool,
}

/// One generated contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ContractSpec {
    pub(crate) prefix: Prefix,
    pub(crate) kind: ContractKind,
    /// `None` means `Expectation::Local`.
    pub(crate) expected: Option<Vec<Ipv4>>,
}

/// The next-hop address pool (leaf-side interface addresses).
pub(crate) fn hop_pool() -> Vec<Ipv4> {
    (1..=6).map(|i| Ipv4(0x1e00_0000 + i)).collect()
}

/// A random canonical prefix inside `10.0.0.0/24` with length in
/// `[min_len, 32]`, or the default route with probability 1/10 when
/// `allow_default`.
pub(crate) fn random_prefix(r: &mut Rng, min_len: u8, allow_default: bool) -> Prefix {
    if allow_default && r.chance(1, 10) {
        return Prefix::DEFAULT;
    }
    let len = r.range(u64::from(min_len), 32) as u8;
    let addr = BASE + r.below(256) as u32;
    Prefix::containing(Ipv4(addr), len).expect("len <= 32")
}

/// A sorted, deduplicated nonempty hop set from the pool.
pub(crate) fn random_hops(r: &mut Rng) -> Vec<Ipv4> {
    let pool = hop_pool();
    let n = r.range(1, 3) as usize;
    let mut hops: Vec<Ipv4> = (0..n).map(|_| *r.pick(&pool)).collect();
    hops.sort_unstable();
    hops.dedup();
    hops
}

/// Random FIB rules with distinct prefixes (the builder's last-wins
/// dedupe is exercised by its own regression tests; distinct prefixes
/// keep the ground-truth model trivially aligned with the table).
pub(crate) fn random_fib_specs(r: &mut Rng, max_rules: u64) -> Vec<FibSpec> {
    let n = r.range(0, max_rules);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for _ in 0..n {
        let prefix = random_prefix(r, 24, true);
        if !seen.insert(prefix) {
            continue;
        }
        let local = r.chance(1, 8);
        let hops = if local { Vec::new() } else { random_hops(r) };
        out.push(FibSpec {
            prefix,
            hops,
            local,
        });
    }
    out
}

/// Random contracts with distinct (prefix, kind) keys. Specific
/// contracts use prefixes of at most 256 addresses so the exhaustive
/// reference stays cheap; a default contract appears with probability
/// ~1/3.
pub(crate) fn random_contract_specs(r: &mut Rng, max_contracts: u64) -> Vec<ContractSpec> {
    let n = r.range(1, max_contracts);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    if r.chance(1, 3) {
        out.push(ContractSpec {
            prefix: Prefix::DEFAULT,
            kind: ContractKind::Default,
            expected: if r.chance(1, 6) {
                None
            } else {
                Some(random_hops(r))
            },
        });
    }
    for _ in 0..n {
        let prefix = random_prefix(r, 24, false);
        if !seen.insert(prefix) {
            continue;
        }
        out.push(ContractSpec {
            prefix,
            kind: ContractKind::Specific,
            expected: Some(random_hops(r)),
        });
    }
    out
}

/// Materialize FIB specs into a [`Fib`].
pub(crate) fn build_fib(device: DeviceId, specs: &[FibSpec]) -> Fib {
    let mut b = FibBuilder::new(device);
    for s in specs {
        b.push(s.prefix, s.hops.clone(), s.local);
    }
    b.finish()
}

/// Materialize contract specs into a [`DeviceContracts`].
pub(crate) fn build_contracts(device: DeviceId, specs: &[ContractSpec]) -> DeviceContracts {
    DeviceContracts::new(
        device,
        specs.iter().map(|s| {
            let expectation = match &s.expected {
                Some(h) => Expectation::NextHops(h.clone().into()),
                None => Expectation::Local,
            };
            (s.prefix, s.kind, expectation)
        }),
    )
}

/// Pretty-print a (FIB, contracts) case for divergence reports.
pub(crate) fn render_case(fib: &[FibSpec], contracts: &[ContractSpec]) -> String {
    let mut s = String::from("fib rules:\n");
    if fib.is_empty() {
        s.push_str("  (empty)\n");
    }
    for e in fib {
        s.push_str(&format!(
            "  {} -> {:?} local={}\n",
            e.prefix, e.hops, e.local
        ));
    }
    s.push_str("contracts:\n");
    for c in contracts {
        s.push_str(&format!(
            "  {:?} {} expect {:?}\n",
            c.kind, c.prefix, c.expected
        ));
    }
    s
}
