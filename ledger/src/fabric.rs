//! The fixed fabric shapes. A seed never changes a shape: it picks
//! scenarios, event mixes and orders over these.

use dctopo::ClosParams;

const fn clos(
    clusters: u32,
    tors: u32,
    leaves: u32,
    spines: u32,
    regional_spines: u32,
) -> ClosParams {
    ClosParams {
        clusters,
        tors_per_cluster: tors,
        leaves_per_cluster: leaves,
        spines,
        regional_spines,
        regional_groups: 2,
        prefixes_per_tor: 1,
    }
}

/// 1084 devices, 4464 links, 961-entry ToR FIBs: the shape the
/// repository's what-if and rollout experiments (E18, E19) gate on.
pub const FABRIC_1K: ClosParams = clos(24, 40, 4, 24, 4);
/// 2744 devices, 2305-entry FIBs: the paper's "several thousand
/// prefixes" per device.
pub const FABRIC_3K: ClosParams = clos(48, 48, 8, 48, 8);
/// 4680 devices, 1.9e7 contracts, 3.0e8 relaxations. The 10k shape is
/// deliberately not measured: see the README on its run-to-run spread.
pub const FABRIC_5K: ClosParams = clos(64, 64, 8, 64, 8);
/// 128 devices, for `--quick` smoke runs and tests.
pub const FABRIC_QUICK: ClosParams = clos(8, 10, 4, 8, 8);

pub fn pick(full: ClosParams, quick: bool) -> ClosParams {
    if quick {
        FABRIC_QUICK
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_documented_sizes() {
        assert_eq!(FABRIC_1K.device_count(), 1084);
        assert_eq!(FABRIC_3K.device_count(), 2744);
        assert_eq!(FABRIC_5K.device_count(), 4680);
        assert_eq!(FABRIC_QUICK.device_count(), 128);
    }
}
