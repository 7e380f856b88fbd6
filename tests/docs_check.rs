//! Docs that cannot drift. Four rules over the user-facing docs:
//!
//! 1. Every command they tell a reader to run must name a target that
//!    exists. Each `--example NAME` needs `examples/NAME.rs`, and each
//!    `--bin NAME` needs a `crates/*/src/bin/NAME.rs`. A shell brace group
//!    (`--bin {a,b}_campaign`) expands to one name per alternative; a shell
//!    variable (`--bin $b`) names no target and is skipped.
//! 2. Every crate path they name (`memsim::engine::System`) must resolve:
//!    its leading segments name module files under `crates/CRATE/src`, and
//!    the first segment past the last module is a `pub` item declared or
//!    re-exported at the top level of that module's file. Later segments
//!    (methods, variants) are not checked. [`PATH_ALLOWLIST`] holds the
//!    mentions that are meant not to resolve.
//! 3. Every environment variable they name with a [`ENV_PREFIXES`] prefix
//!    (`TVARAK_SCALE`) must be read by the program: its quoted name appears
//!    in a `.rs` file under `crates/*/src`, outside the file's
//!    `#[cfg(test)]` tail.
//! 4. Every `--flag` they name must be parsed by the program or be cargo's:
//!    its quoted name (`"--jobs"`) appears in a `.rs` file under
//!    `crates/*/src` or `benchmark/src`, outside the file's `#[cfg(test)]`
//!    tail, or it is one of [`CARGO_FLAGS`]. [`FLAG_ALLOWLIST`] holds the
//!    mentions that are meant to name no parsed flag.

use std::fs;
use std::path::Path;

/// The docs a reader follows, relative to the repository root.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
];

/// The workspace crates whose paths the docs may name.
const CRATES: [&str; 7] = [
    "memsim", "tvarak", "pmemfs", "apps", "bench", "crashsim", "serve",
];

/// The prefixes of the environment variables the program reads.
const ENV_PREFIXES: [&str; 1] = ["TVARAK_"];

/// `(doc, path, reason)`: crate paths a doc names on purpose although they
/// do not resolve.
const PATH_ALLOWLIST: [(&str, &str, &str); 4] = [
    (
        "DESIGN.md",
        "bench::serve",
        "history: a §5 ledger row of a removed module",
    ),
    (
        "DESIGN.md",
        "memsim::trace",
        "history: a §5 ledger row of a removed module",
    ),
    (
        "DESIGN.md",
        "bench::capture",
        "history: a §5 ledger row of a removed module",
    ),
    (
        "benchmark/README.md",
        "memsim::trace",
        "stale, but only a change to the benchmark may edit that file",
    ),
];

/// The cargo flags the docs' commands use.
const CARGO_FLAGS: [&str; 8] = [
    "--release",
    "--bin",
    "--example",
    "--workspace",
    "--all-targets",
    "--manifest-path",
    "--offline",
    "--quiet",
];

/// `(doc, flag, reason)`: flags a doc names on purpose although no program
/// parses them.
const FLAG_ALLOWLIST: [(&str, &str, &str); 4] = [
    (
        "DESIGN.md",
        "--knee",
        "history: a §5 ledger row of a flag deleted with serve_campaign",
    ),
    (
        "DESIGN.md",
        "--arrival",
        "history: a §5 ledger row of a flag deleted with serve_campaign",
    ),
    (
        "DESIGN.md",
        "--policy",
        "history: a §5 ledger row of a flag deleted with serve_campaign",
    ),
    (
        "DESIGN.md",
        "--prof",
        "planned: the probe option ROADMAP item 2 proposes",
    ),
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

/// Every crate path in `line`: a workspace crate name not preceded by an
/// identifier character, then one or more `::ident` segments.
fn crate_paths(line: &str) -> Vec<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for krate in CRATES {
        let prefix = format!("{krate}::");
        for (at, _) in line.match_indices(&prefix) {
            if line[..at].chars().next_back().is_some_and(ident) {
                continue; // `bench::` inside `workbench::`
            }
            let mut path = krate.to_string();
            let mut rest = &line[at + krate.len()..];
            while let Some(tail) = rest.strip_prefix("::") {
                let seg: String = tail.chars().take_while(|&c| ident(c)).collect();
                rest = &tail[seg.len()..];
                if seg.is_empty() || rest.starts_with('*') {
                    break; // `::{a, b}`, `::*` or a `run_*` pattern
                }
                path = format!("{path}::{seg}");
            }
            if path != krate {
                out.push(path);
            }
        }
    }
    out
}

/// Whether the module source `text` declares or re-exports `name` as a
/// top-level `pub` item (`pub fn name`, `pub struct name<..>`,
/// `pub use a::{b, name}`, `pub use a::b as name`, ...).
fn declares_pub(text: &str, name: &str) -> bool {
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(decl) = line.strip_prefix("pub ") else {
            continue;
        };
        if let Some(mut stmt) = decl.strip_prefix("use ").map(str::to_string) {
            while !stmt.contains(';') {
                match lines.next() {
                    Some(more) => stmt.push_str(more),
                    None => break,
                }
            }
            let leaves = stmt.replace(['{', '}', ';'], ",");
            let found = leaves.split(',').any(|leaf| {
                let leaf = leaf.trim();
                let leaf = leaf.rsplit(" as ").next().unwrap_or(leaf);
                leaf.rsplit("::").next() == Some(name)
            });
            if found {
                return true;
            }
            continue;
        }
        let words: Vec<&str> = decl
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        let kinds = [
            "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
        ];
        if words
            .windows(2)
            .any(|w| kinds.contains(&w[0]) && w[1] == name)
        {
            return true;
        }
    }
    false
}

/// Why `path` does not resolve under `root`, or `None` if it does.
fn unresolved(root: &Path, path: &str) -> Option<String> {
    let mut segs = path.split("::");
    let krate = segs.next().unwrap();
    let mut dir = root.join("crates").join(krate).join("src");
    let mut file = dir.join("lib.rs");
    for seg in segs {
        let flat = dir.join(format!("{seg}.rs"));
        let nested = dir.join(seg).join("mod.rs");
        if flat.is_file() || nested.is_file() {
            file = if flat.is_file() { flat } else { nested };
            dir = dir.join(seg);
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        return (!declares_pub(&text, seg)).then(|| {
            let file = file.strip_prefix(root).unwrap().display();
            format!("`{seg}` is no module file and no pub item of {file}")
        });
    }
    None
}

#[test]
fn every_documented_crate_path_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut bad = Vec::new();
    let mut allowed = [false; PATH_ALLOWLIST.len()];
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for path in crate_paths(line) {
                checked += 1;
                let Some(why) = unresolved(root, &path) else {
                    continue;
                };
                match PATH_ALLOWLIST
                    .iter()
                    .position(|&(d, p, _)| d == doc && p == path)
                {
                    Some(k) => allowed[k] = true,
                    None => bad.push(format!("{doc}:{}: {path}: {why}", n + 1)),
                }
            }
        }
    }
    assert!(checked > 0, "no crate path found in {DOCS:?}");
    assert!(
        bad.is_empty(),
        "documented crate paths that do not resolve:\n{}",
        bad.join("\n")
    );
    let stale: Vec<_> = (PATH_ALLOWLIST.iter().zip(allowed))
        .filter(|&(_, used)| !used)
        .map(|(&(doc, path, _), _)| format!("{doc}: {path}"))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted paths that now resolve or left their doc; drop them: {stale:?}"
    );
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

/// Every `PREFIX_NAME` word in `line` for a prefix in [`ENV_PREFIXES`].
fn env_vars(line: &str) -> Vec<&str> {
    let word = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    line.split(|c: char| !word(c))
        .filter(|w| {
            ENV_PREFIXES
                .iter()
                .any(|p| w.len() > p.len() && w.starts_with(p))
        })
        .collect()
}

/// The non-test source of every `.rs` file under `dir`, recursively: each
/// file up to its first `#[cfg(test)]` line.
fn program_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            program_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap();
            let end = text.find("#[cfg(test)]").unwrap_or(text.len());
            out.push(text[..end].to_string());
        }
    }
}

#[test]
fn every_documented_env_var_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            program_sources(&src, &mut sources);
        }
    }
    let mut checked = 0;
    let mut unread = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for var in env_vars(line) {
                checked += 1;
                let quoted = format!("\"{var}\"");
                if !sources.iter().any(|s| s.contains(&quoted)) {
                    unread.push(format!("{doc}:{}: {var}", n + 1));
                }
            }
        }
    }
    assert!(checked > 0, "no environment variable found in {DOCS:?}");
    assert!(
        unread.is_empty(),
        "documented environment variables the program never reads:\n{}",
        unread.join("\n")
    );
}

/// Every `--flag` word in `line`: two dashes not preceded by a word
/// character or a dash, then a lowercase letter and more letters, digits
/// or dashes.
fn flags(line: &str) -> Vec<&str> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut out = Vec::new();
    for (at, _) in line.match_indices("--") {
        let rest = &line[at + 2..];
        if line[..at].chars().next_back().is_some_and(word)
            || !rest.starts_with(|c: char| c.is_ascii_lowercase())
        {
            continue;
        }
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(rest.len());
        out.push(&line[at..at + 2 + len]);
    }
    out
}

#[test]
fn every_documented_flag_is_parsed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            program_sources(&src, &mut sources);
        }
    }
    program_sources(&root.join("benchmark").join("src"), &mut sources);
    let mut checked = 0;
    let mut unparsed = Vec::new();
    let mut allowed = [false; FLAG_ALLOWLIST.len()];
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for flag in flags(line) {
                checked += 1;
                let quoted = format!("\"{flag}\"");
                if CARGO_FLAGS.contains(&flag) || sources.iter().any(|s| s.contains(&quoted)) {
                    continue;
                }
                match FLAG_ALLOWLIST
                    .iter()
                    .position(|&(d, f, _)| d == doc && f == flag)
                {
                    Some(k) => allowed[k] = true,
                    None => unparsed.push(format!("{doc}:{}: {flag}", n + 1)),
                }
            }
        }
    }
    assert!(checked > 0, "no --flag found in {DOCS:?}");
    assert!(
        unparsed.is_empty(),
        "documented flags no program parses:\n{}",
        unparsed.join("\n")
    );
    let stale: Vec<_> = (FLAG_ALLOWLIST.iter().zip(allowed))
        .filter(|&(_, used)| !used)
        .map(|(&(doc, flag, _), _)| format!("{doc}: {flag}"))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted flags that are now parsed or left their doc; drop them: {stale:?}"
    );
}
