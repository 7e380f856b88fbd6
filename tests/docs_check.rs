//! Docs that cannot drift: every command the user-facing docs tell a reader
//! to run must name a target that exists. Each `--example NAME` needs
//! `examples/NAME.rs`, and each `--bin NAME` needs a `crates/*/src/bin/NAME.rs`.
//! A shell brace group (`--bin {a,b}_campaign`) expands to one name per
//! alternative; a shell variable (`--bin $b`) names no target and is skipped.

use std::fs;
use std::path::Path;

/// The docs a reader follows, relative to the repository root.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
];

/// Expand the first `{a,b,..}` group of `word`, recursively.
fn expand_braces(word: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (word.find('{'), word.find('}')) else {
        return vec![word.to_string()];
    };
    let (head, tail) = (&word[..open], &word[close + 1..]);
    word[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

/// Every `(flag, name)` pair in `line`, for `flag` in `--bin`/`--example`.
fn targets(line: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for flag in ["--bin", "--example"] {
        for (at, _) in line.match_indices(flag) {
            let Some(rest) = line[at + flag.len()..].strip_prefix([' ', '=']) else {
                continue; // `--binary`, `--examples`: another flag
            };
            let word: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "_-{},$".contains(*c))
                .collect();
            if word.is_empty() || word.starts_with('$') {
                continue;
            }
            out.extend(expand_braces(&word).into_iter().map(|name| (flag, name)));
        }
    }
    out
}

/// Whether the target `name` of `flag` exists under `root`.
fn exists(root: &Path, flag: &str, name: &str) -> bool {
    if flag == "--example" {
        return root.join("examples").join(format!("{name}.rs")).is_file();
    }
    let file = format!("src/bin/{name}.rs");
    fs::read_dir(root.join("crates"))
        .unwrap()
        .any(|krate| krate.unwrap().path().join(&file).is_file())
}

#[test]
fn every_documented_example_and_bin_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for (flag, name) in targets(line) {
                checked += 1;
                if !exists(root, flag, &name) {
                    missing.push(format!("{doc}:{}: {flag} {name}", n + 1));
                }
            }
        }
    }
    assert!(checked > 0, "no --bin or --example found in {DOCS:?}");
    assert!(
        missing.is_empty(),
        "documented targets with no source:\n{}",
        missing.join("\n")
    );
}
