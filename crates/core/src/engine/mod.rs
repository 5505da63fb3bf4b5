//! Verification engines: FIB × contracts → violations.
//!
//! "The verification engine takes as input a prefix-based forwarding
//! policy P and a contract C, and produces a list of rules in P that
//! violate the contract" (§2.5). Two interchangeable backends:
//!
//! * [`smt::SmtEngine`] — the declarative bit-vector encoding of
//!   §2.5.1, running on the `smtkit` solver ("flexible query language,
//!   performance within a second").
//! * [`trie::TrieEngine`] — the specialized trie algorithm of §2.5.2
//!   ("for the most common workload… much faster"), used by the
//!   production monitoring pipeline. Since the flat-layout rewrite it
//!   packs the trie into one arena and judges all contracts in a
//!   single batched sweep.
//!
//! Both must produce semantically identical verdicts; the integration
//! suite and the `difftest` harness check them against each other and
//! against the frozen pre-rewrite pointer trie kept there.
//!
//! An engine is asked one of two questions. *What does this table
//! violate?* is [`Engine::validate_device`]. *What does it violate now
//! that these rules changed, given what it violated before?* names the
//! change as a [`bgpsim::FibPatch`] and is asked from either side of
//! it: [`Engine::validate_delta`] by a caller holding the *new* table
//! (the patch inside a wire [`FibDelta`]), [`Engine::validate_patch`]
//! by one holding the *old* table and no other use for the new one.
//! Both default to a full validation; the trie engine serves both from
//! one locate → judge → splice body.

pub mod smt;
pub mod trie;

use crate::contracts::DeviceContracts;
use crate::report::ValidationReport;
use bgpsim::{Fib, FibPatch};
use netprim::wire::FibDelta;

/// A verification engine validating one device at a time — the unit of
/// parallelism in local validation (§2.4).
pub trait Engine {
    /// Validate a device's FIB against its contract set.
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport;

    /// Revalidate after an incremental FIB change, seen from the new
    /// side — the monitoring pipeline's question (§2.6.1).
    ///
    /// `fib` is the *new* table, `delta.patch` what turned the table
    /// `prior` was computed against into it (only its prefixes are
    /// read), and `prior` the report of the old table under the *same*
    /// contract set (epoch checks are the caller's job — see
    /// `rcdc::pipeline`). The result must be identical to
    /// `validate_device(fib, contracts)`; engines without an
    /// incremental path inherit this default, which simply revalidates
    /// in full. A wrapper must forward this method, or it silently
    /// turns every revalidation into a full one.
    fn validate_delta(
        &self,
        fib: &Fib,
        contracts: &DeviceContracts,
        delta: &FibDelta,
        prior: &ValidationReport,
    ) -> ValidationReport {
        let _ = (delta, prior);
        self.validate_device(fib, contracts)
    }

    /// The same question from the old side: `base` is the table `prior`
    /// judged and `patch` what turns it into the new one — a what-if
    /// explorer pricing a restarted state, which re-hops a handful of
    /// rules per device and has no other use for the table. The result
    /// must be identical to
    /// `validate_device(&base.patched(patch), contracts)`, which is
    /// this default; an engine that can judge the pair directly does so
    /// instead. A wrapper must forward this method too, or every state
    /// an explorer evaluates builds its tables.
    fn validate_patch(
        &self,
        base: &Fib,
        patch: &FibPatch,
        contracts: &DeviceContracts,
        prior: &ValidationReport,
    ) -> ValidationReport {
        let _ = prior;
        self.validate_device(&base.patched(patch), contracts)
    }

    /// Engine name for logs and benchmark labels.
    fn name(&self) -> &'static str;
}

/// Forwarding impl so boxed engines (the [`crate::runner::EngineChoice`]
/// registry's output) compose with decorators like [`ObservedEngine`].
impl Engine for Box<dyn Engine + Sync> {
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
        (**self).validate_device(fib, contracts)
    }

    fn validate_delta(
        &self,
        fib: &Fib,
        contracts: &DeviceContracts,
        delta: &FibDelta,
        prior: &ValidationReport,
    ) -> ValidationReport {
        (**self).validate_delta(fib, contracts, delta, prior)
    }

    fn validate_patch(
        &self,
        base: &Fib,
        patch: &FibPatch,
        contracts: &DeviceContracts,
        prior: &ValidationReport,
    ) -> ValidationReport {
        (**self).validate_patch(base, patch, contracts, prior)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// An [`Engine`] decorator that counts checks and times them into an
/// [`obskit::Registry`]: the `rcdc_engine_checks_total{engine=...}`
/// counters and `rcdc_engine_check_latency_ns{engine=...}` histograms,
/// further labeled by `op` (`full` or `delta`).
///
/// Handles are resolved once at construction; each validated device
/// then costs four atomic ops on top of the wrapped engine's work.
pub struct ObservedEngine<E> {
    inner: E,
    full_checks: obskit::Counter,
    delta_checks: obskit::Counter,
    full_latency: obskit::Histogram,
    delta_latency: obskit::Histogram,
}

impl<E: Engine> ObservedEngine<E> {
    /// Wrap `inner`, registering its metric families in `registry`
    /// under the engine's [`name`](Engine::name) label.
    pub fn new(inner: E, registry: &obskit::Registry) -> Self {
        let engine = inner.name();
        let checks = |op| {
            registry.counter(
                "rcdc_engine_checks_total",
                "per-device validations by engine and operation",
                &[("engine", engine), ("op", op)],
            )
        };
        let latency = |op| {
            registry.histogram(
                "rcdc_engine_check_latency_ns",
                "per-device validation latency in nanoseconds, by engine and operation",
                &[("engine", engine), ("op", op)],
            )
        };
        ObservedEngine {
            inner,
            full_checks: checks("full"),
            delta_checks: checks("delta"),
            full_latency: latency("full"),
            delta_latency: latency("delta"),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Engine> Engine for ObservedEngine<E> {
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
        self.full_checks.inc();
        let timer = self.full_latency.start_timer();
        let report = self.inner.validate_device(fib, contracts);
        timer.stop();
        report
    }

    fn validate_delta(
        &self,
        fib: &Fib,
        contracts: &DeviceContracts,
        delta: &FibDelta,
        prior: &ValidationReport,
    ) -> ValidationReport {
        self.delta_checks.inc();
        let timer = self.delta_latency.start_timer();
        let report = self.inner.validate_delta(fib, contracts, delta, prior);
        timer.stop();
        report
    }

    fn validate_patch(
        &self,
        base: &Fib,
        patch: &FibPatch,
        contracts: &DeviceContracts,
        prior: &ValidationReport,
    ) -> ValidationReport {
        self.delta_checks.inc();
        let timer = self.delta_latency.start_timer();
        let report = self.inner.validate_patch(base, patch, contracts, prior);
        timer.stop();
        report
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use bgpsim::{simulate, Fib, FibPatch, SimConfig};
    use dctopo::generator::Figure3;
    use dctopo::MetadataService;
    use netprim::wire::FibDelta;
    use netprim::Prefix;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::{trie::TrieEngine, Engine};
    use crate::contracts::{generate_contracts, DeviceContracts};
    use crate::report::ValidationReport;

    /// Which entry point each call into a [`Counting`] engine used.
    #[derive(Default)]
    pub struct Calls {
        pub device: AtomicUsize,
        pub delta: AtomicUsize,
        pub patch: AtomicUsize,
    }

    /// A trie engine that counts its calls by entry point, each
    /// forwarded to the same entry point underneath.
    pub struct Counting(pub TrieEngine, pub Arc<Calls>);

    impl Engine for Counting {
        fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
            self.1.device.fetch_add(1, Ordering::Relaxed);
            self.0.validate_device(fib, contracts)
        }

        fn validate_delta(
            &self,
            fib: &Fib,
            contracts: &DeviceContracts,
            delta: &FibDelta,
            prior: &ValidationReport,
        ) -> ValidationReport {
            self.1.delta.fetch_add(1, Ordering::Relaxed);
            self.0.validate_delta(fib, contracts, delta, prior)
        }

        fn validate_patch(
            &self,
            base: &Fib,
            patch: &FibPatch,
            contracts: &DeviceContracts,
            prior: &ValidationReport,
        ) -> ValidationReport {
            self.1.patch.fetch_add(1, Ordering::Relaxed);
            self.0.validate_patch(base, patch, contracts, prior)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// `fib` without its route for `prefix`.
    pub fn without(fib: &Fib, prefix: Prefix) -> Fib {
        let mut b = bgpsim::FibBuilder::new(fib.device());
        for e in fib.entries().iter().filter(|e| e.prefix != prefix) {
            b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
        }
        b.finish()
    }

    /// Figure-3 fixture: healthy FIBs + contracts + metadata.
    pub fn fig3_healthy() -> (Figure3, Vec<Fib>, Vec<DeviceContracts>, MetadataService) {
        let f = dctopo::generator::figure3();
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        (f, fibs, contracts, meta)
    }

    /// Figure-3 fixture with the paper's four §2.4.4 link failures.
    pub fn fig3_faulted() -> (Figure3, Vec<Fib>, Vec<DeviceContracts>, MetadataService) {
        let mut f = dctopo::generator::figure3();
        for (tor, leaves) in [
            (f.tors[0], [f.a[2], f.a[3]]),
            (f.tors[1], [f.a[0], f.a[1]]),
        ] {
            for leaf in leaves {
                let l = f.topology.link_between(tor, leaf).unwrap().id;
                f.topology.set_link_state(l, dctopo::LinkState::OperDown);
            }
        }
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        (f, fibs, contracts, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{fig3_healthy, Calls, Counting};
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn wrappers_forward_the_delta_primitive() {
        // `validate_delta` and `validate_patch` have correct-but-slow
        // defaults, so a wrapper that forgot to forward one would pass
        // every equivalence suite while validating in full — and
        // building every table — each time.
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0].0 as usize;
        let (fib, dc) = (&fibs[tor], &contracts[tor]);
        let calls = Arc::new(Calls::default());
        let registry = obskit::Registry::new();
        let boxed: Box<dyn Engine + Sync> =
            Box::new(Counting(trie::TrieEngine::new(), calls.clone()));
        let engine = ObservedEngine::new(boxed, &registry);

        let prior = ValidationReport::default();
        let delta = Fib::delta(&testutil::without(fib, f.prefixes[1]), fib);
        engine.validate_delta(fib, dc, &delta, &prior);
        engine.validate_delta(fib, dc, &Fib::delta(fib, fib), &prior);
        engine.validate_patch(fib, &FibPatch::default(), dc, &prior);

        assert_eq!(calls.delta.load(Ordering::Relaxed), 2);
        assert_eq!(calls.patch.load(Ordering::Relaxed), 1);
        assert_eq!(calls.device.load(Ordering::Relaxed), 0);
        let checks = |op| {
            registry
                .snapshot()
                .counter("rcdc_engine_checks_total", &[("engine", "counting"), ("op", op)])
        };
        assert_eq!(checks("delta"), Some(3));
        assert_eq!(checks("full"), Some(0));
    }
}
