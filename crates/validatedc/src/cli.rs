//! Shared command-line argument layer for the `validatedc` binary.
//!
//! Every fabric-driving subcommand (`validate`, `whatif`, `serve`,
//! `plan`) accepts the same vocabulary — Clos shape flags, `--seed`,
//! `--threads`, `--engine`, `--metrics` — and follows the same exit
//! convention (0 = clean/safe, 2 = violations/counterexample/unsafe,
//! 1 = error). This module is that vocabulary, parsed once instead of
//! copied per subcommand.

use dctopo::ClosParams;
use rcdc::runner::EngineChoice;

/// Pull `--key value` options out of an argument list.
pub struct Opts<'a> {
    args: &'a [String],
}

impl<'a> Opts<'a> {
    /// Wrap a subcommand's argument slice.
    pub fn new(args: &'a [String]) -> Self {
        Opts { args }
    }

    /// The argument at `index`, which must be there because `--key`
    /// sits right before it.
    fn value_at(&self, index: usize, key: &str) -> Result<&'a str, String> {
        match self.args.get(index) {
            Some(v) => Ok(v),
            None => Err(format!("missing value for {key}")),
        }
    }

    /// The value following the first occurrence of `--key`: `None`
    /// when the key is absent, an error when nothing follows it.
    pub fn value(&self, key: &str) -> Result<Option<&'a str>, String> {
        match self.args.iter().position(|a| a == key) {
            None => Ok(None),
            Some(i) => self.value_at(i + 1, key).map(Some),
        }
    }

    /// Every value following an occurrence of `--key` (repeatable
    /// options like `--contract`).
    pub fn values(&self, key: &str) -> Result<Vec<&'a str>, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            if self.args[i] == key {
                out.push(self.value_at(i + 1, key)?);
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(out)
    }

    /// Parse `--key value` into `T`, or return `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {key}: {v:?}")),
        }
    }

    /// Is the bare flag `--name` present?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// Arguments that are not `--key value` pairs (input files).
    pub fn positional(&self) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            if self.args[i].starts_with("--") {
                i += 2;
            } else {
                out.push(self.args[i].as_str());
                i += 1;
            }
        }
        out
    }
}

/// The flags shared by every fabric-driving subcommand.
pub struct FabricArgs<'a> {
    /// Generated Clos shape (`--clusters/--tors/--leaves/--spines`).
    pub params: ClosParams,
    /// Deterministic seed for fault injection / scenario choice.
    pub seed: u64,
    /// Worker threads (0 = the component's own default).
    pub threads: usize,
    /// Verification engine.
    pub engine: EngineChoice,
    /// Metric-export destination (`-` = Prometheus text on stdout).
    pub metrics: Option<&'a str>,
}

impl<'a> FabricArgs<'a> {
    /// Parse the shared flags out of a subcommand's options.
    pub fn parse(opts: &Opts<'a>) -> Result<FabricArgs<'a>, String> {
        Ok(FabricArgs {
            params: ClosParams {
                clusters: opts.parsed("--clusters", 4u32)?,
                tors_per_cluster: opts.parsed("--tors", 8u32)?,
                leaves_per_cluster: opts.parsed("--leaves", 4u32)?,
                spines: opts.parsed("--spines", 8u32)?,
                regional_spines: 4,
                regional_groups: 2,
                prefixes_per_tor: 1,
            },
            seed: opts.parsed("--seed", 7u64)?,
            threads: opts.parsed("--threads", 0usize)?,
            engine: opts.value("--engine")?.unwrap_or("trie").parse()?,
            metrics: opts.value("--metrics")?,
        })
    }

    /// Human-report sink honoring the `--metrics -` convention: with
    /// Prometheus text on stdout, the report moves to stderr so the
    /// exposition stays machine-parseable.
    pub fn console(&self) -> Console {
        Console {
            to_stderr: self.metrics == Some("-"),
        }
    }
}

/// Where the human-readable report lines go (see
/// [`FabricArgs::console`]).
pub struct Console {
    to_stderr: bool,
}

impl Console {
    /// Console for a subcommand that takes `--metrics` without the
    /// full fabric vocabulary (the ACL/NSG file checkers).
    pub fn for_dest(metrics: Option<&str>) -> Console {
        Console {
            to_stderr: metrics == Some("-"),
        }
    }

    /// Print one report line.
    pub fn say(&self, line: impl AsRef<str>) {
        if self.to_stderr {
            eprintln!("{}", line.as_ref());
        } else {
            println!("{}", line.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn value_takes_the_first_occurrence_and_values_all_of_them() {
        let a = args("--contract a;permit old.acl --contract b;deny --seed 3");
        let opts = Opts::new(&a);
        assert_eq!(opts.value("--contract"), Ok(Some("a;permit")));
        assert_eq!(opts.values("--contract"), Ok(vec!["a;permit", "b;deny"]));
        assert_eq!(opts.value("--metrics"), Ok(None));
        assert_eq!(opts.values("--metrics"), Ok(vec![]));
    }

    #[test]
    fn parsed_falls_back_to_the_default_only_when_the_key_is_absent() {
        let a = args("--clusters 6 --tors x");
        let opts = Opts::new(&a);
        assert_eq!(opts.parsed("--clusters", 4u32), Ok(6));
        assert_eq!(opts.parsed("--spines", 8u32), Ok(8));
        assert_eq!(
            opts.parsed("--tors", 8u32),
            Err("bad value for --tors: \"x\"".to_string())
        );
    }

    #[test]
    fn a_key_with_nothing_after_it_is_an_error_not_the_default() {
        let a = args("--tors 2 --clusters");
        let opts = Opts::new(&a);
        let missing = "missing value for --clusters".to_string();
        assert_eq!(opts.value("--clusters"), Err(missing.clone()));
        assert_eq!(opts.values("--clusters"), Err(missing.clone()));
        assert_eq!(opts.parsed("--clusters", 4u32), Err(missing.clone()));
        assert_eq!(FabricArgs::parse(&opts).err(), Some(missing));
    }

    #[test]
    fn flags_and_positionals() {
        let a = args("old.acl --metrics - new.acl --devices");
        let opts = Opts::new(&a);
        assert!(opts.flag("--devices"));
        assert!(!opts.flag("--symmetry"));
        assert_eq!(opts.positional(), ["old.acl", "new.acl"]);
    }

    #[test]
    fn fabric_args_defaults_and_overrides() {
        let a = args("--clusters 2 --engine smt --metrics -");
        let fabric = FabricArgs::parse(&Opts::new(&a)).expect("well-formed");
        assert_eq!(fabric.params.clusters, 2);
        assert_eq!(fabric.params.tors_per_cluster, 8);
        assert_eq!((fabric.seed, fabric.threads), (7, 0));
        assert_eq!(fabric.engine, EngineChoice::Smt);
        assert_eq!(fabric.metrics, Some("-"));
        let bad = args("--engine z3");
        assert!(FabricArgs::parse(&Opts::new(&bad)).is_err());
    }
}
