//! Shared workload generation for the benchmark harness.
//!
//! Each bench target regenerates one of the paper's tables or figures;
//! the workloads here mirror the characteristics the paper describes:
//! per-device routing tables with "several thousands of prefixes"
//! (§2.6.3), edge ACLs grown to "several thousand rules" (§3.3), and
//! Clos datacenters up to 10⁴ routers (§2.6.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bgpsim::{Fib, FibBuilder};
use dctopo::{ClosParams, DeviceId};
use netprim::{Ipv4, Prefix};
use rcdc::contracts::{Contract, ContractKind, DeviceContracts, Expectation};

/// A synthetic ToR-like device: a FIB with `prefixes` specific routes
/// (plus a default) all pointing at `hops` uplinks, and the matching
/// contract set. This is the per-device workload of benchmark E1.
pub fn synth_device(prefixes: usize, hops: usize) -> (Fib, DeviceContracts) {
    assert!(prefixes <= 1 << 16);
    let device = DeviceId(0);
    let uplinks: std::sync::Arc<[Ipv4]> = (0..hops as u32)
        .map(|i| Ipv4(Ipv4::new(30, 0, 0, 0).0 + 2 * i + 1))
        .collect();
    let mut fib = FibBuilder::new(device);
    let mut contracts = Vec::with_capacity(prefixes + 1);
    contracts.push(Contract {
        device,
        prefix: Prefix::DEFAULT,
        kind: ContractKind::Default,
        expectation: Expectation::NextHops(uplinks.clone()),
    });
    fib.push(Prefix::DEFAULT, uplinks.to_vec(), false);
    for i in 0..prefixes {
        let prefix = Prefix::new(Ipv4(Ipv4::new(10, 0, 0, 0).0 + ((i as u32) << 8)), 24)
            .expect("aligned /24");
        fib.push(prefix, uplinks.to_vec(), false);
        contracts.push(Contract {
            device,
            prefix,
            kind: ContractKind::Specific,
            expectation: Expectation::NextHops(uplinks.clone()),
        });
    }
    (
        fib.finish(),
        DeviceContracts::new(contracts),
    )
}

/// Clos shapes used by the scale benchmarks, smallest to largest.
/// `(label, params)`; device counts ~128, ~520, ~1.1k.
pub fn scale_shapes() -> Vec<(&'static str, ClosParams)> {
    vec![
        (
            "128-devices",
            ClosParams {
                clusters: 8,
                tors_per_cluster: 8,
                leaves_per_cluster: 4,
                spines: 8,
                regional_spines: 4,
                regional_groups: 2,
                prefixes_per_tor: 1,
            },
        ),
        (
            "532-devices",
            ClosParams {
                clusters: 16,
                tors_per_cluster: 24,
                leaves_per_cluster: 4,
                spines: 16,
                regional_spines: 4,
                regional_groups: 2,
                prefixes_per_tor: 1,
            },
        ),
        (
            "1096-devices",
            ClosParams {
                clusters: 24,
                tors_per_cluster: 40,
                leaves_per_cluster: 4,
                spines: 24,
                regional_spines: 4,
                regional_groups: 2,
                prefixes_per_tor: 1,
            },
        ),
    ]
}

/// The 10⁴-router shape of §2.6.3 ("up to 10^4 routers in less than 3
/// minutes on a single CPU").
pub fn ten_k_shape() -> ClosParams {
    ClosParams {
        clusters: 96,
        tors_per_cluster: 96,
        leaves_per_cluster: 8,
        spines: 64,
        regional_spines: 8,
        regional_groups: 2,
        prefixes_per_tor: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcdc::engine::{trie::TrieEngine, Engine};

    #[test]
    fn synth_device_is_clean() {
        let (fib, contracts) = synth_device(1000, 4);
        assert_eq!(fib.len(), 1001);
        assert_eq!(contracts.len(), 1001);
        let r = TrieEngine::new().validate_device(&fib, &contracts);
        assert!(r.is_clean());
    }

    #[test]
    fn scale_shapes_have_expected_sizes() {
        let shapes = scale_shapes();
        let sizes: Vec<u32> = shapes.iter().map(|(_, p)| p.device_count()).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(ten_k_shape().device_count() >= 10_000);
    }
}
