//! Every `validatedc` verb, driven in-process through
//! [`validatedc::cli::run`]: exit status, which stream each line lands
//! on, the `--metrics` export and the error paths — what CI's shell
//! smoke steps grep for, as asserts.

use obskit::export::parse_prometheus;
use std::path::PathBuf;
use validatedc::cli::{self, VERBS};

/// Run one command line; returns (exit status, stdout, stderr).
fn run(line: &[&str]) -> (u8, String, String) {
    let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = cli::run(&args, &mut out, &mut err);
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    (code, text(out), text(err))
}

/// A scratch directory of this test's own, holding `files`.
fn scratch(test: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("validatedc-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (name, text) in files {
        std::fs::write(dir.join(name), text).expect("write input file");
    }
    dir
}

fn path(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_str().expect("utf-8 path").to_string()
}

const SMALL: [&str; 6] = ["--clusters", "2", "--tors", "2", "--leaves", "4"];

#[test]
fn plan_finds_the_safe_interleaving_and_the_minimal_unsafe_set() {
    let (code, out, _) = run(&[&["plan", "--seed", "11"], &SMALL[..]].concat());
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("naive submit order: UNSAFE"), "{out}");
    assert!(out.contains("VERDICT: safe plan"), "{out}");

    let decommission = [
        "plan",
        "--scenario",
        "decommission",
        "--racks",
        "2",
        "--seed",
        "11",
    ];
    let (code, out, _) = run(&[&decommission[..], &SMALL[..], &["--no-accept-final"]].concat());
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("minimal unsafe change set"), "{out}");
}

#[test]
fn serve_exports_shard_labeled_metrics_on_stdout_and_talks_on_stderr() {
    let (code, out, err) = run(&[
        "serve",
        "--clusters",
        "2",
        "--tors",
        "4",
        "--shards",
        "4",
        "--ingest-capacity",
        "16",
        "--rounds",
        "3",
        "--churn",
        "6",
        "--metrics",
        "-",
    ]);
    assert_eq!(code, 0, "{err}");
    let samples = parse_prometheus(&out).expect("stdout is nothing but the exposition");
    let shard3_pulls = samples.iter().any(|s| {
        let label = |k: &str, v: &str| s.labels.iter().any(|(sk, sv)| sk == k && sv == v);
        s.name == "rcdc_service_events_total" && label("kind", "pull") && label("shard", "3")
    });
    assert!(shard3_pulls, "missing shard-labeled service metrics");
    for line in [
        "serve: 28 devices across 4 shards",
        "round 3: 6 churn events",
        "restore round: 0",
    ] {
        assert!(err.contains(line), "{line:?} not on stderr: {err}");
    }
}

#[test]
fn validate_and_whatif_exit_0_clean_and_2_on_findings() {
    let dir = scratch("validate", &[]);
    let json = path(&dir, "metrics.json");
    let (code, out, err) = run(&[
        "validate",
        "--clusters",
        "2",
        "--tors",
        "4",
        "--metrics",
        &json,
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains(": 0 violations on 0 devices"), "{out}");
    assert!(err.contains("generated 28 devices / 64 links"), "{err}");
    let exported = std::fs::read_to_string(&json).expect("--metrics wrote the file");
    for family in ["\"rcdc_pass_latency_ns\"", "\"rcdc_validate_latency_ns\""] {
        assert!(exported.contains(family), "JSON export missing {family}");
    }
    let faulted = [
        "validate",
        "--clusters",
        "2",
        "--tors",
        "4",
        "--fail-links",
        "3",
        "--seed",
        "5",
    ];
    let (code, out, err) = run(&faulted);
    assert_eq!(code, 2, "{err}");
    assert!(out.contains("49 violations on 20 devices"), "{out}");
    assert!(err.contains("failed link 8"), "{err}");

    let (code, out, _) = run(&["whatif", "--clusters", "2", "--tors", "2", "--k", "1"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("VERDICT: Robust(1)"), "{out}");
    let strict = [
        "whatif",
        "--clusters",
        "2",
        "--tors",
        "2",
        "--k",
        "1",
        "--condition",
        "high",
    ];
    let (code, out, _) = run(&strict);
    assert_eq!(code, 2, "{out}");
    assert!(
        out.contains("VERDICT: counterexample — 1 failure(s)"),
        "{out}"
    );
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

const EDGE_ACL: &str = "remark edge ACL
deny ip 10.0.0.0/8 any
deny ip 172.16.0.0/12 any
deny ip 192.168.0.0/16 any
deny ip 104.208.32.0/20 any
deny tcp any any eq 445
deny tcp any any eq 593
permit tcp any 104.208.32.0/24 eq 443
permit ip any any
";

#[test]
fn acl_and_nsg_checks_exit_0_clean_and_2_on_findings() {
    let redundant = EDGE_ACL.replace("remark edge ACL", "deny ip 10.2.0.0/16 any");
    let leaky = EDGE_ACL.replace("deny tcp any any eq 445", "deny udp any any eq 53");
    let locked = "100; AllowWeb; Any; Any; 10.1.0.0/16; 443; tcp; Allow
4000; DenyAll; Any; Any; Any; Any; Any; Deny
";
    let fixed = format!(
        "90; BackupIn; 20.40.0.0/16; Any; 10.1.9.0/24; 1433; tcp; Allow
95; BackupOut; 10.1.9.0/24; Any; 20.40.0.0/16; 1433; tcp; Allow
{locked}"
    );
    let dir = scratch(
        "acl",
        &[
            ("edge.acl", EDGE_ACL),
            ("redundant.acl", &redundant),
            ("leaky.acl", &leaky),
        ],
    );
    let (edge, redundant, leaky) = (
        path(&dir, "edge.acl"),
        path(&dir, "redundant.acl"),
        path(&dir, "leaky.acl"),
    );
    std::fs::write(dir.join("locked.nsg"), locked).expect("write nsg");
    std::fs::write(dir.join("fixed.nsg"), fixed).expect("write nsg");

    let (code, out, err) = run(&["check-acl", &edge]);
    assert_eq!((code, out.as_str()), (0, "all 7 contracts hold\n"), "{err}");
    assert!(
        err.contains("parsed 8 rules") && err.contains("built-in edge-ACL suite"),
        "{err}"
    );
    let (code, out, _) = run(&["check-acl", &leaky]);
    assert_eq!(code, 2);
    assert!(out.starts_with("VIOLATED block-445 — rule "), "{out}");
    let inline = [
        "--contract",
        "10.1.0.0/16;any;any;any;deny",
        "--contract",
        "any;any;53;udp;deny",
    ];
    let (code, out, _) = run(&[&["check-acl", &leaky][..], &inline[..]].concat());
    assert_eq!((code, out.as_str()), (0, "all 2 contracts hold\n"));

    let gate = ["--db-subnet", "10.1.9.0/24", "--infra", "20.40.0.0/16"];
    let (code, out, _) = run(&[&["check-nsg", &path(&dir, "fixed.nsg")][..], &gate[..]].concat());
    assert_eq!(
        (code, out.as_str()),
        (0, "NSG accepted: backup path preserved\n")
    );
    let (code, out, _) = run(&[&["check-nsg", &path(&dir, "locked.nsg")][..], &gate[..]].concat());
    assert_eq!(code, 2);
    assert!(
        out.contains("REJECTED infra-to-db-backup — rule DenyAll"),
        "{out}"
    );

    let (code, out, _) = run(&["diff-acl", &edge, &redundant]);
    assert_eq!(
        (code, out.as_str()),
        (0, "policies are semantically equivalent\n")
    );
    // The SMT diff answers with or without `--metrics`: the same
    // directions either way (the "e.g." packet is whichever witness the
    // solver finds and is not pinned); with `--metrics -` on stderr,
    // and stdout is the exposition.
    let both = |text: &str| text.contains("newly DENIED") && text.contains("newly PERMITTED");
    let (code, out, _) = run(&["diff-acl", &edge, &leaky]);
    assert!(code == 2 && both(&out), "{code}: {out}");
    let (code, out, err) = run(&["diff-acl", &edge, &leaky, "--metrics", "-"]);
    assert!(code == 2 && both(&err), "{code}: {err}");
    parse_prometheus(&out).expect("stdout is nothing but the exposition");
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn a_bad_command_line_is_exit_1_naming_the_token() {
    let refused = |line: &[&str], token: &str| {
        let (code, out, err) = run(line);
        assert_eq!(code, 1, "{line:?}");
        assert!(out.is_empty(), "{line:?} wrote to stdout: {out}");
        assert!(
            err.starts_with("error: ") && err.contains(token),
            "{line:?}: {err}"
        );
    };
    let cases: [(&[&str], &str); 12] = [
        (&["validate", "--thread", "4"], "--thread"),
        (&["whatif", "--k"], "--k"),
        (&["plan", "--seed", "1", "--seed", "2"], "--seed"),
        (&["frobnicate"], "frobnicate"),
        (&["diff-acl", "only-one.acl"], "only-one.acl"),
        (&["validate", "--engine", "z3"], "z3"),
        (&["check-acl", "no-such-file.acl"], "no-such-file.acl"),
        // `--sample 0` and every fabric `ClosParams::validate` refuses
        // are errors naming the rule they break, never a panic.
        (&["whatif", "--sample", "0"], "whatif: --sample 0"),
        (&["validate", "--spines", "6"], "validate: 6 spines must divide evenly"),
        (&["validate", "--clusters", "401"], "validate: 401 clusters"),
        (&["validate", "--tors", "257"], "validate: 257 ToRs per cluster"),
        (
            &["validate", "--clusters", "300", "--tors", "256"],
            "validate: 76800 hosted prefixes",
        ),
    ];
    for (line, token) in cases {
        refused(line, token);
    }
    let zero = "every fabric dimension must be at least 1";
    for (verb, flag) in [
        ("validate", "--clusters"),
        ("whatif", "--tors"),
        ("plan", "--leaves"),
        ("serve", "--spines"),
    ] {
        refused(&[verb, flag, "0"], &format!("{verb}: {zero}"));
    }
}

#[test]
fn help_lists_every_verb_and_every_flag() {
    let (code, help, _) = run(&["help"]);
    assert_eq!(code, 0);
    assert_eq!(VERBS.len(), 7);
    for verb in VERBS {
        assert!(
            help.contains(&format!("validatedc {}", verb.name)),
            "{}",
            verb.name
        );
        for flag in verb.flags() {
            assert!(
                help.contains(&format!("      {} ", flag.name)),
                "{}",
                flag.name
            );
            // … and what help lists is what the parser takes.
            let mut line = vec![verb.name, flag.name];
            line.extend(flag.valued.then_some("1"));
            let (_, _, err) = run(&[&line[..], &["--no-such-flag"]].concat());
            assert!(
                err.contains("unknown flag --no-such-flag"),
                "{line:?}: {err}"
            );
        }
    }
    let fabric = [
        "--clusters",
        "--tors",
        "--leaves",
        "--spines",
        "--seed",
        "--threads",
        "--engine",
        "--metrics",
    ];
    for verb in VERBS.iter().filter(|v| v.usage.contains("[fabric flags]")) {
        let declared: Vec<&str> = verb.flags().map(|f| f.name).collect();
        assert!(
            fabric.iter().all(|f| declared.contains(f)),
            "{}: {declared:?}",
            verb.name
        );
    }
    let repeatable: Vec<_> = VERBS
        .iter()
        .flat_map(|v| v.flags())
        .filter(|f| f.repeatable)
        .collect();
    assert_eq!(repeatable.len(), 1, "{repeatable:?}");
    assert_eq!(repeatable[0].name, "--contract");
}
