//! The usage text `findplotters` prints matches its argument parsers:
//! every `--flag` a mode's usage line names is one that mode's parser
//! takes. Each flag is given alone (plus a path that does not exist for
//! batch mode and `send`), so no run reads a file or opens a socket: it
//! fails on a missing value, a missing companion flag or the missing
//! file, and never on an unrecognized argument.

use std::process::{Command, Output};

fn findplotters(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_findplotters"))
        .args(args)
        .output()
        .expect("run findplotters")
}

/// Every `--flag` token of `line`, in order, without repeats.
fn flags_of(line: &str) -> Vec<&str> {
    let mut flags = Vec::new();
    for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
        if token.starts_with("--") && !flags.contains(&token) {
            flags.push(token);
        }
    }
    flags
}

#[test]
fn every_flag_in_the_usage_text_is_recognized() {
    let out = findplotters(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).expect("UTF-8 usage text");
    let missing = std::env::temp_dir().join(format!("pw-cli-usage-{}.csv", std::process::id()));
    let missing = missing.to_str().expect("a UTF-8 temp path");
    assert!(!std::path::Path::new(missing).exists());

    // Each mode's usage line, the arguments that come before its flags,
    // and the fewest flags it names.
    let modes: [(&str, &[&str], usize); 4] = [
        ("findplotters <flows.csv>", &[missing], 20),
        ("findplotters serve", &["serve"], 7),
        ("findplotters send", &["send", missing], 10),
        ("findplotters query", &["query"], 1),
    ];
    for (head, lead, fewest) in modes {
        let line = usage
            .lines()
            .find(|l| l.contains(head))
            .unwrap_or_else(|| panic!("no usage line for {head}: {usage}"));
        let flags = flags_of(line);
        assert!(flags.len() >= fewest, "{head}: {flags:?}");
        for flag in flags {
            let out = findplotters(&[lead, &[flag]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("unrecognized"), "{head} {flag}: {stderr}");
            assert!(!stderr.contains("panicked"), "{head} {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{head} {flag}: printed output");
        }
    }

    // A flag no parser takes is reported as such.
    let out = findplotters(&[missing, "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized argument"));
}
