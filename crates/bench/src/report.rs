//! Result tables: the quantities Fig. 8 plots per design, with
//! normalization against the Baseline, rendered as text tables, CSV and
//! gnuplot scripts (`crate::campaign::figure` emits them).

use crate::campaign::{render, Column};
use apps::driver::Design;
use memsim::config::SystemConfig;
use memsim::stats::Stats;
use std::fmt::Write as _;

/// One measured (workload, design) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload label, e.g. "set-only".
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Simulated runtime in cycles.
    pub runtime_cycles: u64,
    /// Energy in nanojoules.
    pub energy_nj: f64,
    /// NVM accesses for application data.
    pub nvm_data: u64,
    /// NVM accesses for redundancy information.
    pub nvm_red: u64,
    /// L1 cache accesses (D+I).
    pub l1: u64,
    /// L2 cache accesses.
    pub l2: u64,
    /// LLC accesses (incl. controller partitions).
    pub llc: u64,
    /// On-controller cache accesses.
    pub tvarak_cache: u64,
    /// Bound-weave eligibility label for the cell's configuration (see
    /// `Outcome::weave_eligibility`); `-` when the producing binary does not
    /// stamp it. Classified from the machine alone, so the column is
    /// byte-identical at every engine-thread count.
    pub weave: &'static str,
}

impl Row {
    /// Build a row from a run's statistics.
    pub fn new(workload: &str, design: Design, stats: &Stats, cfg: &SystemConfig) -> Self {
        let c = &stats.counters;
        Row {
            workload: workload.to_string(),
            design: design.label().to_string(),
            runtime_cycles: stats.runtime_cycles(),
            energy_nj: stats.energy_nj(cfg),
            nvm_data: c.nvm_data(),
            nvm_red: c.nvm_redundancy(),
            l1: c.l1_accesses(),
            l2: c.l2_accesses(),
            llc: c.llc_accesses(),
            tvarak_cache: c.tvarak_accesses(),
            weave: "-",
        }
    }

    /// Stamp the bound-weave eligibility label (builder style).
    pub fn weave(mut self, label: &'static str) -> Self {
        self.weave = label;
        self
    }

    /// Total cache accesses.
    pub fn cache_total(&self) -> u64 {
        self.l1 + self.l2 + self.llc + self.tvarak_cache
    }
}

/// A collection of rows forming one figure/table.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Figure/table title.
    pub title: String,
    /// Measured rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// An empty report with a title.
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The baseline runtime for `workload`, if measured.
    fn baseline_runtime(&self, workload: &str) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.design == "Baseline")
            .map(|r| r.runtime_cycles)
    }

    /// Each row with its runtime normalized to its workload's Baseline
    /// (the paper's presentation), rendered as (table body, CSV).
    fn render(&self) -> (String, String) {
        type Col<'a> = Column<(f64, &'a Row)>;
        let cols = [
            Col::new("workload", "workload", -14, |r| r.1.workload.clone()),
            Col::new("design", "design", -18, |r| r.1.design.clone()),
            Col::new("runtime_cycles", "runtime(cyc)", 14, |r| r.1.runtime_cycles),
            Col::table("norm", 8, |r| format!("{:.3}", r.0)),
            Col::csv("runtime_norm", |r| format!("{:.4}", r.0)),
            Col::new("energy_nj", "energy(nJ)", 14, |r| {
                format!("{:.0}", r.1.energy_nj)
            }),
            Col::new("nvm_data", "nvm-data", 12, |r| r.1.nvm_data),
            Col::new("nvm_red", "nvm-red", 10, |r| r.1.nvm_red),
            Col::new("l1", "L1", 12, |r| r.1.l1),
            Col::new("l2", "L2", 12, |r| r.1.l2),
            Col::new("llc", "LLC", 12, |r| r.1.llc),
            Col::new("tvarak_cache", "tvarak$", 10, |r| r.1.tvarak_cache),
            Col::new("weave", "weave", 12, |r| r.1.weave),
        ];
        let norm = |r: &Row| {
            let base = self.baseline_runtime(&r.workload);
            base.map_or(f64::NAN, |b| r.runtime_cycles as f64 / b as f64)
        };
        let rows: Vec<(f64, &Row)> = self.rows.iter().map(|r| (norm(r), r)).collect();
        render(&cols, &rows, |_| true)
    }

    /// Render the report as an aligned text table with runtimes normalized
    /// to each workload's Baseline.
    pub fn to_table(&self) -> String {
        format!("## {}\n{}", self.title, self.render().0)
    }

    /// Render as CSV (same columns as [`Self::to_table`]).
    pub fn to_csv(&self) -> String {
        self.render().1
    }

    /// Render a gnuplot script plotting normalized runtime as grouped bars
    /// (one group per workload, one bar per design) from the CSV this report
    /// saves — `gnuplot results/<name>.gp` regenerates the figure.
    pub fn to_gnuplot(&self, name: &str) -> String {
        let mut workloads: Vec<&str> = Vec::new();
        let mut designs: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !workloads.contains(&r.workload.as_str()) {
                workloads.push(&r.workload);
            }
            if !designs.contains(&r.design.as_str()) {
                designs.push(&r.design);
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "# {}", self.title);
        let _ = writeln!(s, "set terminal pngcairo size 1000,480");
        let _ = writeln!(s, "set output '{name}.png'");
        let _ = writeln!(s, "set style data histogram");
        let _ = writeln!(s, "set style histogram cluster gap 1");
        let _ = writeln!(s, "set style fill solid 0.9 border -1");
        let _ = writeln!(s, "set ylabel 'runtime normalized to Baseline'");
        let _ = writeln!(s, "set xtics rotate by -30");
        let _ = writeln!(s, "set key outside top");
        let _ = writeln!(s, "$data << EOD");
        let mut header = String::from("workload");
        for d in &designs {
            let _ = write!(header, " \"{d}\"");
        }
        let _ = writeln!(s, "{header}");
        for w in &workloads {
            let _ = write!(s, "\"{w}\"");
            for d in &designs {
                let norm = self
                    .rows
                    .iter()
                    .find(|r| r.workload == *w && r.design == *d)
                    .and_then(|r| {
                        self.baseline_runtime(w)
                            .map(|b| r.runtime_cycles as f64 / b as f64)
                    })
                    .unwrap_or(f64::NAN);
                let _ = write!(s, " {norm:.4}");
            }
            let _ = writeln!(s);
        }
        let _ = writeln!(s, "EOD");
        let cols: Vec<String> = (0..designs.len())
            .map(|i| {
                format!(
                    "$data using {}:xtic(1) title columnheader({})",
                    i + 2,
                    i + 2
                )
            })
            .collect();
        let _ = writeln!(s, "plot {}", cols.join(", \\\n     "));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, design: &str, cycles: u64) -> Row {
        Row {
            workload: workload.into(),
            design: design.into(),
            runtime_cycles: cycles,
            energy_nj: 1.0,
            nvm_data: 2,
            nvm_red: 3,
            l1: 4,
            l2: 5,
            llc: 6,
            tvarak_cache: 7,
            weave: "eligible",
        }
    }

    #[test]
    fn normalization_uses_matching_workload_baseline() {
        let mut rep = Report::new("t");
        rep.push(row("a", "Baseline", 100));
        rep.push(row("a", "Tvarak", 103));
        rep.push(row("b", "Baseline", 200));
        rep.push(row("b", "Tvarak", 300));
        let csv = rep.to_csv();
        assert!(csv.contains("a,Tvarak,103,1.0300"));
        assert!(csv.contains("b,Tvarak,300,1.5000"));
    }

    #[test]
    fn table_contains_all_rows() {
        let mut rep = Report::new("Fig X");
        rep.push(row("w", "Baseline", 10));
        rep.push(row("w", "TxB-Page-Csums", 50));
        let t = rep.to_table();
        assert!(t.contains("Fig X"));
        assert!(t.contains("TxB-Page-Csums"));
        assert!(t.contains("5.000"));
    }

    #[test]
    fn cache_total_sums() {
        assert_eq!(row("w", "d", 1).cache_total(), 4 + 5 + 6 + 7);
    }

    #[test]
    fn gnuplot_script_contains_all_series() {
        let mut rep = Report::new("t");
        rep.push(row("w1", "Baseline", 100));
        rep.push(row("w1", "Tvarak", 120));
        rep.push(row("w2", "Baseline", 10));
        rep.push(row("w2", "Tvarak", 30));
        let gp = rep.to_gnuplot("fig");
        assert!(gp.contains("\"Baseline\" \"Tvarak\""));
        assert!(gp.contains("\"w1\" 1.0000 1.2000"));
        assert!(gp.contains("\"w2\" 1.0000 3.0000"));
        assert!(gp.contains("set output 'fig.png'"));
    }
}
