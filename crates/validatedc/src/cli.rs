//! The `validatedc` command line, declared once: each [`Verb`] in
//! [`VERBS`] carries its usage text — synopsis, summary, one line per
//! flag — and its `run` function. `help` prints that text and the
//! parser accepts exactly what it declares, so the two cannot drift.
//! A verb's `run` (in `verbs.rs`) is parse → one builder call → a
//! report value → a pure `render_*` in [`crate::render`]; what verbs
//! share — fabric generation, the engine/threads/metrics builder
//! prologue, where human lines go, the `--metrics` export — is the
//! `Run` context. Exit status: 0 = clean, 2 = findings (violations,
//! counterexample, unsafe change set), 1 = error.

use crate::verbs;
use dctopo::{build_clos, ClosParams, LinkId, LinkState, MetadataService, Topology};
use obskit::{MetricsSnapshot, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcdc::runner::EngineChoice;
use rcdc::validator::{Validator, ValidatorBuilder};
use std::fmt::{Display, Write as _};
use std::io::Write;
use std::str::FromStr;

/// One declared subcommand.
pub struct Verb {
    /// The command word.
    pub name: &'static str,
    /// What `help` prints and the parser reads: a synopsis line naming
    /// each positional as `<NAME>` (and `[fabric flags]` to take the
    /// shared vocabulary), the summary, then one line per flag —
    /// `--name  help` for a switch, `--name METAVAR  help` for a valued
    /// flag, `--name METAVAR...  help` for a repeatable one.
    pub usage: &'static str,
    /// Run it: `Ok(true)` = clean, `Ok(false)` = findings.
    pub(crate) run: fn(&mut Run<'_>) -> Result<bool, String>,
}

/// One flag, as a usage line declares it.
#[derive(Debug)]
pub struct Flag {
    /// The token, dashes included.
    pub name: &'static str,
    /// Does a value follow it?
    pub valued: bool,
    /// May it be given more than once?
    pub repeatable: bool,
}

/// The vocabulary of every verb whose synopsis says `[fabric flags]`.
const FABRIC: &str = "  fabric flags:
      --clusters N         clusters in the generated Clos (default 4)
      --tors N             ToRs per cluster (default 8)
      --leaves N           leaves per cluster (default 4)
      --spines N           spines (default 8)
      --seed S             seed for faults, scenarios, sampling and churn (default 7)
      --threads N          worker threads (default 0 = the calling thread)
      --engine E           trie|trie-semantic|smt|smt-semantic (default trie)
      --metrics DEST       export the run's metrics: - = Prometheus text on stdout (the
                           report moves to stderr), *.json = JSON file, else Prometheus file
";

/// Every subcommand, in `help` order.
pub const VERBS: &[Verb] = &[
    Verb {
        name: "validate",
        run: verbs::validate,
        usage: "  validatedc validate [flags] [fabric flags]
    Generate a Clos datacenter, converge BGP, validate every device's local
    contracts and print the triaged report.
      --fail-links N       take N seeded random links down before converging (default 0)
",
    },
    Verb {
        name: "whatif",
        run: verbs::whatif,
        usage: "  validatedc whatif [flags] [fabric flags]
    Sweep failure scenarios up to k simultaneous failures, re-converging each
    incrementally and revalidating only the changed devices. Prints Robust(k)
    (exit 0) or a minimal counterexample (exit 2).
      --k N                certify up to N simultaneous failures (default 1)
      --condition C        what fails a state: any|low|medium|high|blackhole (default blackhole)
      --devices            fail devices too, not only links
      --sample N           cap scenarios per size (default: sizes 1-2 all, then 256)
      --exhaustive         sweep past the first counterexample and count them all
      --fail-links N       take N seeded random links down before converging (default 0)
",
    },
    Verb {
        name: "serve",
        run: verbs::serve,
        usage: "  validatedc serve [flags] [fabric flags]
    Run the always-on sharded validation service over a simulated fleet: a cold
    sweep, rounds of route churn, then a restore round that must reconverge to
    clean.
      --shards N           service shards (default 1)
      --ingest-capacity N  per-shard ingest queue bound (default 1024)
      --rounds N           churn rounds (default 5)
      --churn N            churn events per round (default 8)
",
    },
    Verb {
        name: "plan",
        run: verbs::plan,
        usage: "  validatedc plan [flags] [fabric flags]
    Search for a change ordering whose every intermediate state satisfies the
    contracts. Prints where the naive submit order first fails, then the safe
    plan (exit 0) or the ddmin-minimal unsafe change set (exit 2).
      --scenario S         migrate|decommission (default migrate)
      --racks N            racks the scenario touches (default 1)
      --condition C        what fails a state: any|low|medium|high|blackhole (default blackhole)
      --no-accept-final    also forbid violations present in the end state
      --max-backtracks N   search budget (default 4096)
",
    },
    Verb {
        name: "check-acl",
        run: verbs::check_acl,
        usage: "  validatedc check-acl <FILE> [flags]
    Parse a Cisco-IOS-style ACL and check contracts against it.
      --contract SPEC...   '<src>;<dst>;<dport>;<proto>;<permit|deny>', any field may be
                           'any' (default: the built-in edge-ACL suite)
      --metrics DEST       export the run's metrics, as under fabric flags
",
    },
    Verb {
        name: "check-nsg",
        run: verbs::check_nsg,
        usage: "  validatedc check-nsg <FILE> --db-subnet PREFIX --infra PREFIX [--port N]
    Validate an NSG policy file against the auto-generated database-backup
    reachability contracts.
      --db-subnet PREFIX   the managed database's subnet
      --infra PREFIX       the backup infrastructure service
      --port N             backup port (default 1433)
",
    },
    Verb {
        name: "diff-acl",
        run: verbs::diff_acl,
        usage: "  validatedc diff-acl <OLD> <NEW> [flags]
    Semantic diff of two ACL files: witnesses for newly denied and newly
    permitted traffic, or a proof of equivalence.
      --metrics DEST       export the run's metrics, as under fabric flags
",
    },
];

impl Verb {
    /// The flags its usage declares.
    pub fn flags(&self) -> impl Iterator<Item = Flag> {
        let shared = if self.usage.contains("[fabric flags]") {
            FABRIC
        } else {
            ""
        };
        let lines = self
            .usage
            .lines()
            .chain(shared.lines())
            .map(str::trim_start);
        lines.filter(|line| line.starts_with("--")).map(|line| {
            let declaration = line.split("  ").next().unwrap_or_default();
            let (name, metavar) = declaration.split_once(' ').unwrap_or((declaration, ""));
            let (valued, repeatable) = (!metavar.is_empty(), metavar.ends_with("..."));
            Flag {
                name,
                valued,
                repeatable,
            }
        })
    }

    /// The positionals its synopsis names.
    fn positionals(&self) -> Vec<&'static str> {
        let synopsis = self.usage.lines().next().unwrap_or_default().split(' ');
        synopsis.filter(|word| word.starts_with('<')).collect()
    }
}

/// The `help` text: every verb's usage, then the shared flags.
pub fn help() -> String {
    let usages: Vec<&str> = VERBS.iter().map(|verb| verb.usage).collect();
    let (head, usages) = ("usage: validatedc <command> [flags]", usages.join("\n"));
    let exit = "exit status: 0 = clean, 2 = violations found, 1 = error";
    format!("{head}\n\n{usages}\n  validatedc help\n\n{FABRIC}\n{exit}\n")
}

/// A verb's arguments, checked against its declaration.
#[derive(Default)]
pub(crate) struct Args<'a> {
    /// The verb's name, for error messages.
    pub verb: &'static str,
    given: Vec<(&'static str, &'a str)>,
    /// The positional arguments, exactly as many as the verb declares.
    pub positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Parse `args` as `verb` declares them: an undeclared flag, a
    /// missing value, a repeated non-repeatable flag and a wrong
    /// positional count are errors naming the verb and the token.
    pub fn parse(verb: &Verb, args: &'a [String]) -> Result<Args<'a>, String> {
        let name = verb.name;
        let mut parsed = Args {
            verb: name,
            ..Args::default()
        };
        let mut tokens = args.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                parsed.positional.push(token);
                continue;
            }
            let unknown = || format!("{name}: unknown flag {token} (see `validatedc help`)");
            let flag = verb.flags().find(|f| f.name == token).ok_or_else(unknown)?;
            if !flag.repeatable && parsed.flag(token) {
                return Err(format!("{name}: {token} given more than once"));
            }
            let missing = || format!("{name}: missing value for {token}");
            let value = if flag.valued {
                tokens.next().ok_or_else(missing)?
            } else {
                ""
            };
            parsed.given.push((flag.name, value));
        }
        let (want, got) = (verb.positionals(), &parsed.positional);
        if want.len() != got.len() {
            let (n, want, got) = (want.len(), want.join(" "), got.join(" "));
            return Err(format!(
                "{name}: takes {n} positional argument(s) [{want}], got [{got}]"
            ));
        }
        Ok(parsed)
    }

    /// Every value given for the flag `name`, in order.
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        let given = self.given.iter().filter(move |(flag, _)| *flag == name);
        given.map(|(_, value)| *value)
    }

    /// The value given for `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).next()
    }

    /// Was `name` given?
    pub fn flag(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value given for `name` parsed as `T`, if it was given.
    pub fn parsed<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| format!("bad value for {name}: {v:?} ({e})"))
        };
        self.value(name).map(parse).transpose()
    }
}

/// One invocation: its arguments — the shared fabric vocabulary parsed
/// up front, an undeclared flag reading as its default — its two
/// output streams and the metrics `--metrics` exports.
pub(crate) struct Run<'a> {
    pub args: Args<'a>,
    /// `--seed`: fault injection, scenario choice, sampling, churn.
    pub seed: u64,
    /// `--threads` (0 = the component's own default).
    pub threads: usize,
    params: ClosParams,
    engine: EngineChoice,
    fail_links: usize,
    out: &'a mut dyn Write,
    err: &'a mut dyn Write,
    registry: Registry,
    export: Option<MetricsSnapshot>,
}

impl<'a> Run<'a> {
    fn new(args: Args<'a>, out: &'a mut dyn Write, err: &'a mut dyn Write) -> Result<Self, String> {
        let params = ClosParams {
            clusters: args.parsed("--clusters")?.unwrap_or(4),
            tors_per_cluster: args.parsed("--tors")?.unwrap_or(8),
            leaves_per_cluster: args.parsed("--leaves")?.unwrap_or(4),
            spines: args.parsed("--spines")?.unwrap_or(8),
            regional_spines: 4,
            regional_groups: 2,
            prefixes_per_tor: 1,
        };
        // `build_clos` panics on a shape it refuses; refuse it here.
        params.validate().map_err(|e| format!("{}: {e}", args.verb))?;
        Ok(Run {
            params,
            seed: args.parsed("--seed")?.unwrap_or(7),
            threads: args.parsed("--threads")?.unwrap_or(0),
            engine: args.parsed("--engine")?.unwrap_or(EngineChoice::Trie),
            fail_links: args.parsed("--fail-links")?.unwrap_or(0),
            args,
            out,
            err,
            registry: Registry::new(),
            export: None,
        })
    }

    /// Print report text: on stdout, or on stderr when `--metrics -`
    /// claims stdout for the Prometheus exposition. (A stream that
    /// went away does not change the verdict: write errors are
    /// dropped, here and in [`log`](Self::log).)
    pub fn say(&mut self, text: &str) {
        let _ = match self.args.value("--metrics") {
            Some("-") => self.err.write_all(text.as_bytes()),
            _ => self.out.write_all(text.as_bytes()),
        };
    }

    /// Print progress text, always on stderr.
    pub fn log(&mut self, text: &str) {
        let _ = self.err.write_all(text.as_bytes());
    }

    /// The registry to instrument with, when `--metrics` was given.
    pub fn registry(&self) -> Option<&Registry> {
        self.args.flag("--metrics").then_some(&self.registry)
    }

    /// Generate the Clos fabric and take `--fail-links` seeded random
    /// links down. Returns the topology and the announcement of both
    /// steps (`<failed> link N` per downed link).
    pub fn generate(&self, failed: &str) -> (Topology, String) {
        let mut topology = build_clos(&self.params);
        let (devices, links) = (topology.devices().len(), topology.links().len());
        let mut announcement = format!("generated {devices} devices / {links} links\n");
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.fail_links {
            let link = LinkId(rng.gen_range(0..links as u32));
            topology.set_link_state(link, LinkState::OperDown);
            writeln!(announcement, "{failed} link {}", link.0).unwrap();
        }
        (topology, announcement)
    }

    /// A validator builder over `meta` with `--engine`, `--threads`
    /// and (under `--metrics`) the run's registry applied.
    pub fn validator(&self, meta: &MetadataService) -> ValidatorBuilder {
        let builder = Validator::new(meta)
            .engine(self.engine)
            .threads(self.threads);
        match self.registry() {
            Some(registry) => builder.metrics(registry),
            None => builder,
        }
    }

    /// Under `--metrics`, take `snapshot` of the run's registry as
    /// what is exported once the verb returns.
    pub fn export(&mut self, snapshot: impl FnOnce(&Registry) -> MetricsSnapshot) {
        self.export = self.registry().map(snapshot);
    }

    /// The `--metrics` epilogue: `-` renders Prometheus text into
    /// `out`, anything else is a file (`*.json` = JSON).
    fn write_metrics(&mut self) -> Result<(), String> {
        let (Some(dest), Some(snapshot)) = (self.args.value("--metrics"), &self.export) else {
            return Ok(());
        };
        match dest {
            "-" => self.out.write_all(snapshot.to_prometheus().as_bytes()),
            path => snapshot.write_to(path),
        }
        .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))
    }
}

/// Find the verb, parse its arguments, run it, export its metrics.
fn dispatch(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<bool, String> {
    let no_command = || format!("no command given\n{}", help());
    let (command, rest) = args.split_first().ok_or_else(no_command)?;
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        let written = out.write_all(help().as_bytes());
        return written.map(|()| true).map_err(|e| e.to_string());
    }
    let unknown = || format!("unknown command {command:?}\n{}", help());
    let verb = VERBS
        .iter()
        .find(|v| v.name == command)
        .ok_or_else(unknown)?;
    let mut run = Run::new(Args::parse(verb, rest)?, out, err)?;
    let clean = (verb.run)(&mut run)?;
    run.write_metrics()?;
    Ok(clean)
}

/// The `validatedc` command line over `args` (the command word
/// first): human output and `--metrics -` go to `out`, progress and
/// errors to `err`. Returns the exit status — 0 clean, 2 findings,
/// 1 error.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    match dispatch(args, out, err) {
        Ok(true) => 0,
        Ok(false) => 2, // checks ran; violations found
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn verb(name: &str) -> &'static Verb {
        VERBS.iter().find(|v| v.name == name).expect("declared")
    }

    #[test]
    fn a_repeated_scalar_flag_is_an_error_and_contract_stays_repeatable() {
        let a = args("--contract a;permit old.acl --contract b;deny");
        let parsed = Args::parse(verb("check-acl"), &a).expect("well-formed");
        assert_eq!(
            parsed.values("--contract").collect::<Vec<_>>(),
            ["a;permit", "b;deny"]
        );
        assert_eq!(parsed.value("--metrics"), None);
        assert_eq!(parsed.values("--metrics").count(), 0);
        let twice = args("--seed 1 --seed 2");
        let err = Args::parse(verb("plan"), &twice)
            .err()
            .expect("scalar flag given twice");
        assert_eq!(err, "plan: --seed given more than once");
    }

    #[test]
    fn parsed_falls_back_to_the_default_only_when_the_key_is_absent() {
        let a = args("--clusters 6 --tors x");
        let parsed = Args::parse(verb("validate"), &a).expect("well-formed");
        assert_eq!(parsed.parsed::<u32>("--clusters"), Ok(Some(6)));
        assert_eq!(parsed.parsed::<u32>("--spines"), Ok(None));
        let err = parsed.parsed::<u32>("--tors").expect_err("x is no number");
        assert!(err.starts_with("bad value for --tors: \"x\""), "{err}");
    }

    #[test]
    fn a_key_with_nothing_after_it_is_an_error_not_the_default() {
        let a = args("--tors 2 --clusters");
        let err = Args::parse(verb("validate"), &a).err();
        assert_eq!(
            err,
            Some("validate: missing value for --clusters".to_string())
        );
    }

    #[test]
    fn flags_and_positionals() {
        // Arity comes from the table: the bare `--exhaustive` cannot
        // swallow what follows it, and `--metrics` takes even a `-`.
        let a = args("old.acl --metrics - new.acl");
        let parsed = Args::parse(verb("diff-acl"), &a).expect("well-formed");
        assert_eq!(parsed.value("--metrics"), Some("-"));
        assert_eq!(parsed.positional, ["old.acl", "new.acl"]);
        let a = args("--exhaustive --k 2 --devices");
        let parsed = Args::parse(verb("whatif"), &a).expect("well-formed");
        assert!(parsed.flag("--devices") && parsed.flag("--exhaustive"));
        assert!(!parsed.flag("--fail-links"));
        assert_eq!(parsed.parsed::<usize>("--k"), Ok(Some(2)));
        let stray = args("--exhaustive extra");
        let err = Args::parse(verb("whatif"), &stray)
            .err()
            .expect("whatif takes no positional");
        assert!(err.contains("whatif") && err.contains("extra"), "{err}");
        let unknown = args("--thread 4");
        let err = Args::parse(verb("validate"), &unknown)
            .err()
            .expect("undeclared flag");
        assert!(
            err.contains("validate") && err.contains("--thread"),
            "{err}"
        );
    }

    #[test]
    fn fabric_args_defaults_and_overrides() {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let a = args("--clusters 2 --engine smt --metrics -");
        let parsed = Args::parse(verb("validate"), &a).expect("well-formed");
        let run = Run::new(parsed, &mut out, &mut err).expect("well-formed");
        assert_eq!(run.params.clusters, 2);
        assert_eq!(run.params.tors_per_cluster, 8);
        assert_eq!((run.seed, run.threads, run.fail_links), (7, 0, 0));
        assert_eq!(run.engine, EngineChoice::Smt);
        assert!(run.registry().is_some());
        let bad = args("--engine z3");
        let parsed = Args::parse(verb("validate"), &bad).expect("well-formed");
        let error = Run::new(parsed, &mut out, &mut err)
            .err()
            .expect("z3 is not an engine");
        assert!(error.contains("z3"), "{error}");
    }
}
