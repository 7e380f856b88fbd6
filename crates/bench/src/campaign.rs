//! The campaign driver: one owner for everything the evaluation binaries
//! share (DESIGN.md §18).
//!
//! Every artefact of this repo is a grid of independent cells, so a binary
//! under `src/bin` only declares a [`Campaign`]: its name, its extra
//! [`Opt`]ions, and a pure `run` from the parsed [`Config`] to an
//! [`Output`]. The driver owns the rest — argv and environment parsing
//! (fail closed: anything unknown or malformed is a [`UsageError`]),
//! `TVARAK_SCALE`, `--jobs`/`--threads`, the cell filter, rendering table
//! and CSV from one [`Column`] list, the `results/` layout, violation
//! reporting, and the exit codes: 0 clean, 1 invariant violation or failed
//! write, 2 usage.

use crate::report::{Report, Row};
use crate::runner::{self, Cell};
use crate::workloads::{Outcome, Scale};
use apps::driver::{AppError, Design};
use std::fmt::Display;
use std::io::Write;
use std::path::Path;

/// The run size selected by `TVARAK_SCALE` (`quick`, `reduced` or `full`;
/// unset means `full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// Smoke-test sizes.
    Quick,
    /// Half-sized measured phases for the many-configuration sweeps.
    Reduced,
    /// The default evaluation scale.
    Full,
}

impl ScaleKind {
    /// The value this scale selects out of a campaign's three sizings.
    pub fn pick<T>(self, quick: T, reduced: T, full: T) -> T {
        match self {
            ScaleKind::Quick => quick,
            ScaleKind::Reduced => reduced,
            ScaleKind::Full => full,
        }
    }

    /// The paper-workload sizing at this scale.
    pub fn workloads(self) -> Scale {
        self.pick(Scale::quick(), Scale::reduced(), Scale::full())
    }
}

/// A rejected command line or environment; `main` prints it with the usage
/// text and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

/// Where an [`Opt`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A flag taking a value as `--name V` or `--name=V`.
    Value,
    /// Bare arguments, at least this many; the setter runs once per
    /// argument, in order.
    Positional(usize),
    /// An environment variable; the setter runs only when it is set.
    Env,
}

/// Validates an option's text and stores the typed value in the campaign's
/// options struct `O`.
pub type Setter<O> = fn(&mut O, &str) -> Result<(), String>;

/// One campaign-specific option.
pub struct Opt<O> {
    kind: Kind,
    name: &'static str,
    hint: &'static str,
    set: Setter<O>,
}

impl<O> Opt<O> {
    /// An option called `name` (empty for positionals) whose value the usage
    /// text describes as `hint`.
    pub fn new(kind: Kind, name: &'static str, hint: &'static str, set: Setter<O>) -> Self {
        Opt {
            kind,
            name,
            hint,
            set,
        }
    }
}

/// Parse a strictly positive integer (`--jobs`, `--intervals`, ...).
///
/// # Errors
///
/// A description of the rejected text.
pub fn positive(v: &str) -> Result<u64, String> {
    match number(v)? {
        0 => Err("expected a positive integer, got 0".into()),
        n => Ok(n),
    }
}

/// Parse a non-negative integer (`--threads`, `--seed`).
///
/// # Errors
///
/// A description of the rejected text.
pub fn number(v: &str) -> Result<u64, String> {
    let bad = |_| format!("expected a non-negative integer, got {v:?}");
    v.parse().map_err(bad)
}

/// What a campaign's `run` sees of the command line and environment.
#[derive(Debug, Clone)]
pub struct Config<O> {
    /// `TVARAK_SCALE`.
    pub scale: ScaleKind,
    /// Bound-weave engine threads per cell (`--threads` beats
    /// `MEMSIM_ENGINE_THREADS`; default 1, the sequential oracle; 0 asks
    /// for the host's available parallelism). Any value ≥ 2 means the same
    /// engine: the bound thread plus one replay worker.
    pub threads: usize,
    /// Cell filter from the campaign's filter variable (empty: all cells).
    pub filter: String,
    /// The campaign's own options.
    pub opts: O,
}

impl<O> Config<O> {
    /// Whether the filter keeps the cell labelled `ctx` (substring match).
    pub fn selects(&self, ctx: &str) -> bool {
        self.filter.is_empty() || ctx.contains(&self.filter)
    }
}

/// One column of a campaign's result sheet. The CSV header and row and the
/// table header and row are all derived from the same list, so they cannot
/// drift apart.
pub struct Column<R> {
    csv: String,
    head: String,
    width: isize,
    cell: Box<dyn Fn(&R) -> String>,
}

impl<R> Column<R> {
    /// A column in both the CSV (header `csv`) and the table (header
    /// `head`, padded to `|width|`, left-aligned when `width` is negative).
    /// An empty header leaves the column out of that rendering.
    pub fn new<D: Display>(
        csv: impl Into<String>,
        head: impl Into<String>,
        width: isize,
        cell: impl Fn(&R) -> D + 'static,
    ) -> Self {
        let cell = Box::new(move |r: &R| cell(r).to_string());
        Column {
            csv: csv.into(),
            head: head.into(),
            width,
            cell,
        }
    }

    /// A column that appears only in the CSV.
    pub fn csv<D: Display>(csv: impl Into<String>, cell: impl Fn(&R) -> D + 'static) -> Self {
        Column::new(csv, "", 0, cell)
    }

    /// A column that appears only in the stdout table.
    pub fn table<D: Display>(head: &str, width: isize, cell: impl Fn(&R) -> D + 'static) -> Self {
        Column::new("", head, width, cell)
    }
}

/// Render `rows` through `cols` as (aligned text table, CSV), header line
/// first; only rows `in_table` keeps appear in the table.
pub fn render<R>(
    cols: &[Column<R>],
    rows: &[R],
    in_table: impl Fn(&R) -> bool,
) -> (String, String) {
    let line = |cells: &[String], tabled: bool| {
        let mut kept = Vec::new();
        for (c, cell) in cols.iter().zip(cells) {
            let header = if tabled { &c.head } else { &c.csv };
            let w = c.width.unsigned_abs();
            match (header.is_empty(), tabled, c.width < 0) {
                (true, ..) => {}
                (_, false, _) => kept.push(cell.clone()),
                (_, true, true) => kept.push(format!("{cell:<w$}")),
                (_, true, false) => kept.push(format!("{cell:>w$}")),
            }
        }
        kept.join(if tabled { " " } else { "," }) + "\n"
    };
    let heads: Vec<String> = cols.iter().map(|c| c.head.clone()).collect();
    let names: Vec<String> = cols.iter().map(|c| c.csv.clone()).collect();
    let (mut table, mut csv) = (line(&heads, true), line(&names, false));
    for r in rows {
        let cells: Vec<String> = cols.iter().map(|c| (c.cell)(r)).collect();
        csv += &line(&cells, false);
        if in_table(r) {
            table += &line(&cells, true);
        }
    }
    (table, csv)
}

/// Everything a campaign produced, as data: `run` does no I/O, so two
/// widths of the same campaign can be compared with `==`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    /// The stdout text.
    pub table: String,
    /// Artefacts as (path relative to the results directory, bytes); the
    /// campaign CSV first, then gnuplot scripts and event logs.
    pub files: Vec<(String, Vec<u8>)>,
    /// Invariant violations; any makes the process exit 1.
    pub violations: Vec<String>,
    /// Result rows produced (0 under a filter means nothing was checked).
    pub rows: usize,
}

impl Output {
    /// Render `rows` under `title`: every row goes to `<csv_name>` and, when
    /// `in_table` keeps it, to the stdout table.
    pub fn sheet<R>(
        title: &str,
        csv_name: &str,
        cols: &[Column<R>],
        rows: &[R],
        in_table: impl Fn(&R) -> bool,
    ) -> Output {
        let (table, csv) = render(cols, rows, in_table);
        Output {
            table: format!("{title}\n{table}"),
            files: vec![(csv_name.to_string(), csv.into_bytes())],
            violations: Vec::new(),
            rows: rows.len(),
        }
    }

    /// Append another output (a second figure of the same binary).
    pub fn append(&mut self, other: Output) {
        self.table += &other.table;
        self.files.extend(other.files);
        self.violations.extend(other.violations);
        self.rows += other.rows;
    }

    /// Write every artefact under `dir`.
    ///
    /// # Errors
    ///
    /// The first I/O error; a stale file from an earlier run must never be
    /// mistaken for this run's result.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        for (name, bytes) in &self.files {
            let path = dir.join(name);
            std::fs::create_dir_all(path.parent().unwrap_or(dir))?;
            std::fs::write(path, bytes)?;
        }
        Ok(())
    }
}

/// A binary's command line and environment: the common `--jobs`,
/// `--threads`, `TVARAK_SCALE`, `MEMSIM_JOBS` and `MEMSIM_ENGINE_THREADS`
/// plus what it declares here.
pub struct Cli<O> {
    /// Binary name (usage text, diagnostics).
    pub name: &'static str,
    /// Flags, positionals and environment variables beyond the common set.
    options: Vec<Opt<O>>,
    /// The cell-filter variable (`CHAOS_FILTER`), for campaigns that have
    /// one; it lands in [`Config::filter`].
    filter_env: Option<&'static str>,
}

impl<O: Default> Cli<O> {
    /// Parse `args` (without the program name) and the environment into the
    /// config and the `--jobs` width (flag beats `MEMSIM_JOBS` beats the
    /// host's available parallelism).
    ///
    /// # Errors
    ///
    /// Unknown flag or argument, missing or malformed value, unknown
    /// `TVARAK_SCALE`, or any rejection by an option's setter.
    pub fn parse(
        &self,
        args: &[String],
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<(Config<O>, usize), UsageError> {
        let bad = |what: &str, e: String| UsageError(format!("{what}: {e}"));
        let host = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut opts = O::default();
        let jobs = env("MEMSIM_JOBS").map(|v| positive(&v).map_err(|e| bad("MEMSIM_JOBS", e)));
        let threads = env("MEMSIM_ENGINE_THREADS")
            .map(|v| number(&v).map_err(|e| bad("MEMSIM_ENGINE_THREADS", e)));
        let (mut jobs, mut threads) = (jobs.transpose()?, threads.transpose()?);
        let scale = match env("TVARAK_SCALE").as_deref() {
            Some("quick") => ScaleKind::Quick,
            Some("reduced") => ScaleKind::Reduced,
            Some("full") | None => ScaleKind::Full,
            Some(other) => return Err(bad("TVARAK_SCALE", format!("unknown scale {other:?}"))),
        };
        for o in self.options.iter().filter(|o| o.kind == Kind::Env) {
            if let Some(v) = env(o.name) {
                (o.set)(&mut opts, &v).map_err(|e| bad(o.name, e))?;
            }
        }
        let mut positionals = 0;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) if n.starts_with("--") => (n, Some(v)),
                _ => (arg.as_str(), None),
            };
            let needs_value = || bad(name, "needs a value".into());
            let mut value = || {
                inline
                    .or_else(|| it.next().map(String::as_str))
                    .ok_or_else(needs_value)
            };
            let flag = name.starts_with("--");
            let opt = self.options.iter().find(|o| match o.kind {
                Kind::Value => o.name == name,
                Kind::Positional(_) => !flag,
                Kind::Env => false,
            });
            match (name, opt.map(|o| o.kind)) {
                ("--jobs", _) => jobs = Some(positive(value()?).map_err(|e| bad(name, e))?),
                ("--threads", _) => threads = Some(number(value()?).map_err(|e| bad(name, e))?),
                (_, Some(Kind::Value)) => set(opt, &mut opts, value()?)?,
                (_, Some(Kind::Positional(_))) => {
                    positionals += 1;
                    set(opt, &mut opts, name)?;
                }
                _ => return Err(UsageError(format!("unknown argument {arg:?}"))),
            }
        }
        let short = |o: &&Opt<O>| matches!(o.kind, Kind::Positional(n) if positionals < n);
        if let Some(o) = self.options.iter().find(short) {
            return Err(UsageError(format!("missing argument: {}", o.hint)));
        }
        let threads = match threads {
            Some(0) => host(),
            Some(n) => n as usize,
            None => 1,
        };
        let filter = self.filter_env.and_then(env).unwrap_or_default();
        let cfg = Config {
            scale,
            threads,
            filter,
            opts,
        };
        Ok((cfg, jobs.map_or_else(host, |n| n as usize)))
    }

    /// The usage text printed with every [`UsageError`].
    fn usage(&self) -> String {
        let mut s = format!("usage: {} [--jobs N] [--threads N]", self.name);
        let mut envs =
            String::from("TVARAK_SCALE=quick|reduced|full MEMSIM_JOBS=N MEMSIM_ENGINE_THREADS=N");
        for o in &self.options {
            match o.kind {
                Kind::Value => s += &format!(" [{} {}]", o.name, o.hint),
                Kind::Positional(_) => s += &format!(" [{}]", o.hint),
                Kind::Env => envs += &format!(" {}={}", o.name, o.hint),
            }
        }
        if let Some(f) = self.filter_env {
            envs += &format!(" {f}=<substring>");
        }
        format!(
            "{s}\n--threads: 1 = sequential, any N >= 2 = bound thread + one replay worker\n\
             environment: {envs}"
        )
    }
}

/// Apply a matched option's setter, labelling a rejection with its name.
fn set<O>(opt: Option<&Opt<O>>, opts: &mut O, text: &str) -> Result<(), UsageError> {
    let opt = opt.expect("caller matched on the option's kind");
    let label = if opt.name.is_empty() {
        opt.hint
    } else {
        opt.name
    };
    (opt.set)(opts, text).map_err(|e| UsageError(format!("{label}: {e}")))
}

/// A campaign declaration; see the module docs for the split of duties.
pub struct Campaign<O> {
    /// What the binary accepts.
    pub cli: Cli<O>,
    /// Printed to stdout after a violation-free run (empty: nothing).
    pub ok_line: &'static str,
    /// The grid: build cells from the config, run them on `jobs` workers
    /// (once or in rounds), and return what to emit.
    pub run: fn(&Config<O>, usize) -> Output,
}

impl<O: Default> Campaign<O> {
    /// A campaign with no extra options, no filter and no closing line.
    pub fn new(name: &'static str, run: fn(&Config<O>, usize) -> Output) -> Self {
        let cli = Cli {
            name,
            options: Vec::new(),
            filter_env: None,
        };
        Campaign {
            cli,
            ok_line: "",
            run,
        }
    }

    /// Set the flags, positionals and environment variables beyond the
    /// common set.
    pub fn options(mut self, options: Vec<Opt<O>>) -> Self {
        self.cli.options = options;
        self
    }

    /// Set the cell-filter variable (`CHAOS_FILTER`).
    pub fn filter_env(mut self, var: &'static str) -> Self {
        self.cli.filter_env = Some(var);
        self
    }

    /// Set [`Campaign::ok_line`].
    pub fn ok_line(mut self, line: &'static str) -> Self {
        self.ok_line = line;
        self
    }

    /// Run on an already parsed config: print the table to `stdout`, write
    /// the artefacts under `dir`, report violations on stderr. Returns the
    /// exit code.
    pub fn emit(&self, cfg: &Config<O>, jobs: usize, dir: &Path, stdout: &mut dyn Write) -> i32 {
        let name = self.cli.name;
        let out = (self.run)(cfg, jobs);
        // A filter that matches nothing must not read as a clean campaign.
        if out.rows == 0 && !cfg.filter.is_empty() {
            eprintln!(
                "{name}: filter {:?} matched no cells — nothing was checked",
                cfg.filter
            );
            return 2;
        }
        let emitted = stdout.write_all(out.table.as_bytes());
        if let Err(e) = emitted.and_then(|()| out.write_to(dir)) {
            eprintln!("{name}: cannot emit results under {}: {e}", dir.display());
            return 1;
        }
        eprintln!(
            "[saved {} file(s) under {}]",
            out.files.len(),
            dir.display()
        );
        if let Some(kb) = runner::peak_rss_kb() {
            eprintln!("[peak RSS: {kb} KiB]");
        }
        if !out.violations.is_empty() {
            eprintln!("INVARIANT VIOLATIONS ({}):", out.violations.len());
            out.violations.iter().for_each(|v| eprintln!("  {v}"));
            return 1;
        }
        if !self.ok_line.is_empty() && writeln!(stdout, "{}", self.ok_line).is_err() {
            return 1;
        }
        0
    }

    /// Run the campaign as a process: real argv and environment (usage
    /// text and exit 2 on a [`UsageError`]), artefacts under `results/`,
    /// exit code from [`Campaign::emit`].
    pub fn main(&self) -> ! {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let parsed = self.cli.parse(&args, &|k| std::env::var(k).ok());
        let (cfg, jobs) = parsed.unwrap_or_else(|UsageError(e)| {
            eprintln!("{}: {e}\n{}", self.cli.name, self.cli.usage());
            std::process::exit(2)
        });
        let code = self.emit(
            &cfg,
            jobs,
            Path::new("results"),
            &mut std::io::stdout().lock(),
        );
        std::process::exit(code)
    }
}

/// One cell of a figure: the row's workload and design labels plus the run
/// producing its [`Outcome`].
pub struct FigCell {
    workload: String,
    label: String,
    design: Design,
    run: Box<dyn FnOnce() -> Result<Outcome, AppError> + Send>,
}

impl FigCell {
    /// A cell whose row is labelled `workload` / `label`.
    pub fn new(
        workload: impl Into<String>,
        label: impl Into<String>,
        design: Design,
        run: impl FnOnce() -> Result<Outcome, AppError> + Send + 'static,
    ) -> Self {
        FigCell {
            workload: workload.into(),
            label: label.into(),
            design,
            run: Box::new(run),
        }
    }
}

/// The cells of a `workloads × designs` figure: each workload is its row
/// label plus the parameter that selects it in `run`.
pub fn grid<O, W: Copy + Send + 'static>(
    cfg: &Config<O>,
    workloads: impl IntoIterator<Item = (String, W)>,
    designs: &[Design],
    run: fn(Design, W, &Scale, usize) -> Result<Outcome, AppError>,
) -> Vec<FigCell> {
    let mut cells = Vec::new();
    for (label, w) in workloads {
        for &design in designs {
            let (s, t) = (cfg.scale.workloads(), cfg.threads);
            cells.push(FigCell::new(
                label.clone(),
                design.label(),
                design,
                move || run(design, w, &s, t),
            ));
        }
    }
    cells
}

/// Run a figure's cells on the pool and render them through [`Report`]
/// (normalised table, CSV and gnuplot script named `name`). `weave` stamps
/// each row's bound-weave eligibility column (the Fig. 8 binaries).
///
/// # Panics
///
/// When a cell's workload fails: a figure with a hole is not a result.
pub fn figure(title: &str, name: &str, weave: bool, cells: Vec<FigCell>, jobs: usize) -> Output {
    let cells = cells
        .into_iter()
        .map(|c| {
            Cell::new(format!("{} {}", c.workload, c.label), move || {
                let out =
                    (c.run)().unwrap_or_else(|e| panic!("{} {} failed: {e}", c.workload, c.label));
                (c.workload, c.label, c.design, out)
            })
        })
        .collect();
    let results = runner::run_cells(cells, jobs);
    runner::eprint_rates(&results, |(.., out)| out.stats.runtime_cycles());
    let mut rep = Report::new(title);
    for r in results {
        let (workload, label, design, out) = r.value;
        let mut row = Row::new(&workload, design, &out.stats, &out.cfg);
        row.design = label;
        rep.push(if weave {
            row.weave(out.weave_eligibility)
        } else {
            row
        });
    }
    Output {
        table: rep.to_table() + "\n",
        files: vec![
            (format!("{name}.csv"), rep.to_csv().into_bytes()),
            (format!("{name}.gp"), rep.to_gnuplot(name).into_bytes()),
        ],
        violations: Vec::new(),
        rows: rep.rows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Options land in a log of what each setter accepted.
    fn campaign() -> Campaign<Vec<String>> {
        Campaign::new("t", |cfg: &Config<Vec<String>>, _| Output {
            table: "t\n".into(),
            files: vec![("t.csv".into(), b"h\n".to_vec())],
            violations: cfg.opts.iter().filter(|o| *o == "b").cloned().collect(),
            rows: usize::from(cfg.selects("cell")),
        })
        .filter_env("T_FILTER")
        .ok_line("ok")
        .options(vec![
            Opt::new(Kind::Value, "--seed", "N", |o, v| {
                number(v).map(|n| o.push(format!("seed={n}")))
            }),
            Opt::new(Kind::Positional(0), "", "a|b", |o, v| match v {
                "a" | "b" if !o.iter().any(|seen| seen == "a" || seen == "b") => {
                    o.push(v.into());
                    Ok(())
                }
                _ => Err("expected a or b, once".into()),
            }),
            Opt::new(Kind::Env, "APPS", "x,y", |o, v| {
                let known = v.split(',').all(|a| a == "x" || a == "y");
                o.push(format!("apps={v}"));
                known.then_some(()).ok_or(format!("unknown app in {v:?}"))
            }),
        ])
    }

    type Parsed = Result<(Config<Vec<String>>, usize), UsageError>;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Parsed {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let lookup = |k: &str| env.iter().find(|e| e.0 == k).map(|e| e.1.to_string());
        campaign().cli.parse(&args, &lookup)
    }

    #[test]
    fn accepts_every_form_and_source() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (cfg, jobs) = parse(&[], &[]).unwrap();
        assert_eq!((jobs, cfg.threads, cfg.scale), (host, 1, ScaleKind::Full));
        assert!(cfg.opts.is_empty() && cfg.filter.is_empty());

        let env = [
            ("TVARAK_SCALE", "quick"),
            ("MEMSIM_JOBS", "5"),
            ("MEMSIM_ENGINE_THREADS", "0"),
            ("APPS", "x,y"),
            ("T_FILTER", "app="),
        ];
        let (cfg, jobs) = parse(&["--seed=9", "b"], &env).unwrap();
        assert_eq!((jobs, cfg.threads, cfg.scale), (5, host, ScaleKind::Quick));
        assert_eq!(cfg.opts, ["apps=x,y", "seed=9", "b"]);
        assert_eq!(cfg.filter, "app=");

        let (cfg, jobs) = parse(&["--jobs", "2", "--threads=3", "--seed", "7"], &env).unwrap();
        assert_eq!((jobs, cfg.threads), (2, 3), "flags beat the environment");
        assert_eq!(cfg.opts, ["apps=x,y", "seed=7"]);
        assert_eq!(
            parse(&[], &[("TVARAK_SCALE", "full")]).unwrap().0.scale,
            ScaleKind::Full
        );
    }

    #[test]
    fn fails_closed() {
        for (args, env) in [
            (&["--quik"][..], &[][..]),
            (&["--jobs"], &[]),
            (&["--jobs", "abc"], &[]),
            (&["--jobs", "0"], &[]),
            (&["--jobs=0"], &[]),
            (&["--threads", "x"], &[]),
            (&["--seed"], &[]),
            (&["--seed", "abc"], &[]),
            (&["c"], &[]),
            (&["a", "b"], &[]),
            (&["--APPS", "x"], &[]),
            (&[], &[("TVARAK_SCALE", "qick")]),
            (&[], &[("TVARAK_SCALE", "")]),
            (&[], &[("MEMSIM_JOBS", "0")]),
            (&[], &[("MEMSIM_ENGINE_THREADS", "two")]),
            (&[], &[("APPS", "x,z")]),
        ] {
            assert!(parse(args, env).is_err(), "accepted {args:?} {env:?}");
        }
        let mut strict = campaign();
        strict.cli.options[1] = Opt::new(Kind::Positional(2), "", "<a> <b>", |_, _| Ok(()));
        assert!(
            strict.cli.parse(&["a".into()], &|_| None).is_err(),
            "missing positional"
        );
        assert!(campaign().cli.usage().contains("[--seed N] [a|b]"));
    }

    #[test]
    fn sheet_derives_table_and_csv_from_one_list() {
        let cols = [
            Column::new("name", "who", -5, |r: &(&str, f64)| r.0),
            Column::csv("exact", |r: &(&str, f64)| format!("{:.4}", r.1)),
            Column::table("~", 6, |r: &(&str, f64)| format!("{:.1}", r.1)),
        ];
        let rows = [("ab", 1.25), ("total", 2.0)];
        let out = Output::sheet("# t", "t.csv", &cols, &rows, |r| r.0 != "total");
        assert_eq!(out.table, "# t\nwho        ~\nab       1.2\n");
        let csv = b"name,exact\nab,1.2500\ntotal,2.0000\n".to_vec();
        assert_eq!((out.files, out.rows), (vec![("t.csv".to_string(), csv)], 2));
    }

    #[test]
    fn exit_codes_and_write_failures() {
        let dir = std::env::temp_dir().join(format!("campaign-emit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let emit = |args: &[&str], env: &[(&str, &str)], dir: &Path| {
            let (cfg, jobs) = parse(args, env).unwrap();
            let mut stdout = Vec::new();
            let code = campaign().emit(&cfg, jobs, dir, &mut stdout);
            (code, String::from_utf8(stdout).unwrap())
        };
        assert_eq!(emit(&[], &[], &dir), (0, "t\nok\n".into()));
        assert_eq!(std::fs::read(dir.join("t.csv")).unwrap(), b"h\n");
        assert_eq!(emit(&["b"], &[], &dir), (1, "t\n".into()), "violation");
        let filtered = emit(&[], &[("T_FILTER", "zzz")], &dir);
        assert_eq!(filtered.0, 2, "a filter that matched nothing");
        // A results path that is a regular file: the write error is an exit
        // code, not a silently stale artefact.
        assert_eq!(emit(&[], &[], &dir.join("t.csv")).0, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
