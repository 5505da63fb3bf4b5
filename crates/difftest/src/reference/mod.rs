//! Code that *states* what the product must equal, kept out of every
//! shipped library. Nothing here is selectable at run time.
//!
//! * Frozen pre-rewrite implementations, verbatim, as oracles for the
//!   optimized simulator ([`sim`]), trie engine ([`trie`]) and contract
//!   generator ([`contracts`]).
//! * The paper-claim oracles: §2.4.5's abstract local-validation
//!   obligations ([`framework`]) and the global all-pairs checker
//!   ([`global_baseline`]) that Claim 1 and experiment E8 are measured
//!   against. The root integration tests and `repro -- e8` reach them
//!   through `validatedc`'s dev-dependency on this crate.

pub mod contracts;
pub mod framework;
pub mod global_baseline;
pub mod sim;
pub mod trie;

// The Figure-3 fixtures the claim oracles' unit tests share.
#[cfg(test)]
mod tests {
    use bgpsim::{simulate, Fib, SimConfig};
    use dctopo::generator::Figure3;
    use dctopo::MetadataService;
    use rcdc::{generate_contracts, DeviceContracts};

    type Fixture = (Figure3, Vec<Fib>, Vec<DeviceContracts>, MetadataService);

    fn converged(f: Figure3) -> Fixture {
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        (f, fibs, contracts, meta)
    }

    /// Figure-3 fixture: healthy FIBs + contracts + metadata.
    pub(crate) fn fig3_healthy() -> Fixture {
        converged(dctopo::generator::figure3())
    }

    /// Figure-3 fixture with the paper's four §2.4.4 link failures.
    pub(crate) fn fig3_faulted() -> Fixture {
        let mut f = dctopo::generator::figure3();
        for (tor, leaves) in [(f.tors[0], [f.a[2], f.a[3]]), (f.tors[1], [f.a[0], f.a[1]])] {
            for leaf in leaves {
                let l = f.topology.link_between(tor, leaf).unwrap().id;
                f.topology.set_link_state(l, dctopo::LinkState::OperDown);
            }
        }
        converged(f)
    }
}
