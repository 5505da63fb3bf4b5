//! # difftest — the standing differential fuzzing harness
//!
//! The paper's engines are trusted because they watch each other:
//! "Azure uses both implementations to validate the datacenters and
//! monitors for differences in results" (§2.5.2). This crate is that
//! monitor for the workspace, in fuzzer form: every pair of independent
//! implementations is cross-checked on seeded random inputs, so a
//! soundness bug in any one of them shows up as a divergence instead of
//! a silently wrong verdict.
//!
//! Nine oracles, each a self-contained generator + cross-check:
//!
//! * [`Oracle::Sat`] — the CDCL [`smtkit::SatSolver`] (plain, under
//!   assumptions, and incrementally) against brute-force enumeration,
//!   plus structured pigeonhole instances with analytically known
//!   verdicts at sizes that exercise restarts and conflict analysis
//!   below the assumption frontier.
//! * [`Oracle::Engines`] — `TrieEngine` (strict and semantic) vs
//!   `SmtEngine` vs exhaustive per-address forwarding ground truth on
//!   one device, on random Figure-3 fault sets the whole-fabric
//!   agreement plus the Claim 1 implication against the global
//!   baseline, and on random Clos fabrics with downed links the
//!   optimized simulator and flat trie against the frozen
//!   [`mod@reference`] pair (bit-identical FIBs at every `SimOptions`,
//!   rule-for-rule verdicts), and every device's class-derived contract
//!   set against the frozen per-device generator (the same contracts in
//!   the same report order).
//! * [`Oracle::Incremental`] — `Engine::validate_delta` over random
//!   churn chains against full revalidation, with every delta pushed
//!   through the wire codec and `apply_delta`.
//! * [`Oracle::Wire`] — `FIB1` images and `FibDelta`s under round
//!   trips, truncation and byte-level mutation (decode must fail
//!   cleanly or produce a value that re-encodes to the exact bytes); an
//!   image hashes exactly when it decodes, to its table's hash, and
//!   decodes to what a builder makes of its entries; every delta that
//!   decodes is a canonical patch and applies to a base re-anchored to
//!   it, never a panic.
//! * [`Oracle::SecGuru`] — SMT contract checking vs the interval
//!   engine vs exhaustive `Policy::allows` enumeration, and
//!   `semantic_diff` and `SmtDiff` witnesses, per direction, vs the
//!   same enumeration of the unsliced policies (the gate for the
//!   change slice).
//! * [`Oracle::Session`] — random assert/push/pop/`check_assuming`
//!   scripts against one long-lived [`smtkit::Session`] vs a fresh
//!   solver rebuilt per query vs brute-force enumeration, with model
//!   re-evaluation on every satisfiable verdict.
//! * [`Oracle::Sim`] — the deterministic fault-injection simulation of
//!   the live pipeline ([`simnet`]): seeded fault schedules (drops,
//!   duplicates, reordering, stale snapshots, corrupted deltas, flaps,
//!   mid-sweep contract republishes) against the end-state convergence
//!   invariants, with failing schedules ddmin-minimized.
//! * [`Oracle::Whatif`] — the k-failure robustness sweeper's
//!   incremental scenario evaluation (fixed-point restart + delta-only
//!   revalidation) against full re-simulation and cold validation on
//!   small seeded fabrics, plus brute-force audits of `Robust(k)`
//!   certificates, counterexample minimality, and serial-vs-parallel
//!   sweep determinism.
//! * [`Oracle::Rollout`] — the change-rollout planner's incremental
//!   state evaluation (anchored restarts + shared verdict memo)
//!   against apply-from-scratch re-simulation and cold validation,
//!   plus brute-force audits of every prefix state of emitted plans,
//!   unsafe-change-set minimality, and thread-count determinism.
//!
//! The frozen pre-rewrite simulator, pointer trie and per-device
//! contract generator those oracles (and
//! `tests/flat_trie_equivalence.rs`) judge against live in
//! [`mod@reference`] — here, not in the libraries they check — and so
//! do the paper-claim oracles: the global baseline the engines oracle,
//! the root integration tests and `repro -- e8` compare against, and
//! the §2.4.5 framework `tests/claim1.rs` holds the contracts to.
//!
//! Every failure carries the replay seed and a greedily minimized
//! counterexample. Reproduce with
//! `cargo run -p difftest -- --oracle <name> --seed <N> --count 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engines;
mod gen;
mod incremental;
pub mod reference;
mod rollout_oracle;
mod sat;
mod secguru_oracle;
mod session;
mod simnet_oracle;
mod whatif_oracle;
mod wire;

use std::fmt;

/// A cross-check failure: two implementations disagreed (or one broke
/// an invariant the other guarantees).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which oracle caught it.
    pub oracle: Oracle,
    /// The seed that reproduces it.
    pub seed: u64,
    /// One-line description of the disagreement.
    pub summary: String,
    /// The greedily minimized counterexample, ready to paste into a
    /// regression test.
    pub minimized: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DIVERGENCE [{} seed {}]: {}",
            self.oracle.name(),
            self.seed,
            self.summary
        )?;
        writeln!(f, "minimized case:\n{}", self.minimized)?;
        write!(
            f,
            "replay: cargo run -p difftest -- --oracle {} --seed {} --count 1",
            self.oracle.name(),
            self.seed
        )
    }
}

/// Internal failure report produced by an oracle before it is stamped
/// with the oracle kind and seed.
pub(crate) struct Failure {
    pub(crate) summary: String,
    pub(crate) minimized: String,
}

/// The nine cross-check oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// CDCL SAT solver vs brute force / analytic verdicts.
    Sat,
    /// Trie vs SMT verification engines vs forwarding ground truth.
    Engines,
    /// Incremental revalidation vs full revalidation over churn.
    Incremental,
    /// Wire codec round trips, truncation, and mutation.
    Wire,
    /// SecGuru SMT vs interval engine vs concrete policy semantics.
    SecGuru,
    /// Incremental solver sessions vs fresh solvers vs brute force.
    Session,
    /// Deterministic fault-injection simulation of the live pipeline.
    Sim,
    /// Incremental what-if scenario evaluation vs brute-force
    /// re-simulation and cold validation.
    Whatif,
    /// Rollout-planner state evaluation and plan verdicts vs
    /// brute-force re-simulation and cold validation.
    Rollout,
}

impl Oracle {
    /// Every oracle, in the order the mixed runner executes them.
    pub const ALL: [Oracle; 9] = [
        Oracle::Sat,
        Oracle::Engines,
        Oracle::Incremental,
        Oracle::Wire,
        Oracle::SecGuru,
        Oracle::Session,
        Oracle::Sim,
        Oracle::Whatif,
        Oracle::Rollout,
    ];

    /// CLI name of the oracle.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Sat => "sat",
            Oracle::Engines => "engines",
            Oracle::Incremental => "incremental",
            Oracle::Wire => "wire",
            Oracle::SecGuru => "secguru",
            Oracle::Session => "session",
            Oracle::Sim => "sim",
            Oracle::Whatif => "whatif",
            Oracle::Rollout => "rollout",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Oracle> {
        Oracle::ALL.into_iter().find(|o| o.name() == s)
    }

    fn run(self, seed: u64) -> Result<(), Failure> {
        // Decorrelate oracles sharing a seed: each draws from its own
        // stream keyed by (seed, oracle tag).
        let sub = simnet::rng::mix(seed, self as u64 + 1);
        match self {
            Oracle::Sat => sat::run(sub),
            Oracle::Engines => engines::run(sub),
            Oracle::Incremental => incremental::run(sub),
            Oracle::Wire => wire::run(sub),
            Oracle::SecGuru => secguru_oracle::run(sub),
            Oracle::Session => session::run(sub),
            Oracle::Sim => simnet_oracle::run(sub),
            Oracle::Whatif => whatif_oracle::run(sub),
            Oracle::Rollout => rollout_oracle::run(sub),
        }
    }
}

/// Run one oracle on one seed.
pub fn run_oracle(oracle: Oracle, seed: u64) -> Option<Divergence> {
    oracle.run(seed).err().map(|f| Divergence {
        oracle,
        seed,
        summary: f.summary,
        minimized: f.minimized,
    })
}

/// Run every oracle on one seed (the mixed-oracle default).
pub fn run_seed(seed: u64) -> Vec<Divergence> {
    Oracle::ALL
        .into_iter()
        .filter_map(|o| run_oracle(o, seed))
        .collect()
}
