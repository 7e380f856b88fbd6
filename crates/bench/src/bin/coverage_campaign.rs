//! Fault-injection coverage campaign: Table I's verification column,
//! quantified.
//!
//! For each design, many trials each inject one silent media corruption
//! (a firmware-style bit flip) into a DAX-mapped file, then run a stream of
//! random reads. We record whether the corruption is detected *inline* (on a
//! verified read — only TVARAK designs can), how many wrong-data reads the
//! application consumed before any detection, whether a background scrub
//! pass would have caught it afterwards (the software designs' mechanism),
//! and whether parity recovery restored the data.
//!
//! Expected outcome (Table I): TVARAK detects on first touch and recovers;
//! TxB-* designs consume corrupted data silently and only a scrub finds it;
//! Baseline never finds it.

use apps::driver::{Design, Machine};
use apps::rng::Rng;
use bench::campaign::{Campaign, Column, Output};
use bench::faulted::designs;
use bench::runner::{self, Cell};
use tvarak::scrub::Scrubber;

/// Corruptions injected per design.
pub const TRIALS: u64 = 40;
const FILE_BYTES: u64 = 64 * 1024;
const READS: u64 = 400;

#[derive(Default)]
struct Tally {
    trials: u64,
    detected_inline: u64,
    wrong_data_reads: u64,
    detected_by_scrub: u64,
    recovered: u64,
    undetected: u64,
}

fn pattern(line: u64) -> [u8; 64] {
    let mut p = [0u8; 64];
    for (i, b) in p.iter_mut().enumerate() {
        *b = (line as u8).wrapping_mul(31).wrapping_add(i as u8);
    }
    p
}

impl Tally {
    /// Fold one trial's counts into the per-design aggregate. Every field
    /// is a sum, so the aggregate is independent of merge order — but the
    /// runner hands results back in input order anyway.
    fn merge(&mut self, other: &Tally) {
        self.trials += other.trials;
        self.detected_inline += other.detected_inline;
        self.wrong_data_reads += other.wrong_data_reads;
        self.detected_by_scrub += other.detected_by_scrub;
        self.recovered += other.recovered;
        self.undetected += other.undetected;
    }
}

fn run_trial(design: Design, trial: u64) -> Tally {
    let mut tally = Tally {
        trials: 1,
        ..Tally::default()
    };
    let mut m = Machine::builder()
        .small()
        .design(design)
        .data_pages(128)
        .build();
    let file = m.create_dax_file("victim", FILE_BYTES).unwrap();
    let lines = file.len() / 64;
    for l in 0..lines {
        file.write(&mut m.sys, 0, l * 64, &pattern(l)).unwrap();
    }
    m.flush();
    m.reinit_redundancy(&file);

    // One silent bit flip at a random media location.
    let mut rng = Rng::new(0x5eed_0000 + trial);
    let victim = rng.below(lines);
    let bit = rng.below(512) as usize;
    let line_addr = file.addr(victim * 64).line();
    let mut data = m.sys.memory().peek_line(line_addr);
    data[bit / 8] ^= 1 << (bit % 8);
    m.sys.memory_mut().poke_line(line_addr, &data);

    // Random reads; the corrupted line is guaranteed to be among them.
    let mut detected = false;
    for i in 0..READS {
        let l = if i == READS / 2 {
            victim
        } else {
            rng.below(lines)
        };
        let mut buf = [0u8; 64];
        match file.read(&mut m.sys, 0, l * 64, &mut buf) {
            Ok(()) => {
                if buf != pattern(l) {
                    tally.wrong_data_reads += 1;
                }
            }
            Err(err) => {
                detected = true;
                tally.detected_inline += 1;
                if m.recover(err.line.page()).is_ok() {
                    tally.recovered += 1;
                }
                break;
            }
        }
    }
    if detected {
        return tally;
    }
    // Background scrub pass (the software designs' safety net) at the
    // design's own checksum granularity. Baseline keeps no checksums, so
    // nothing can find the corruption.
    let Some(granularity) = design.checksum_granularity() else {
        tally.undetected += 1;
        return tally;
    };
    let layout = *m.fs.layout();
    let mut scrubber = Scrubber::new(layout, granularity, file.first_data_index(), file.pages());
    match scrubber.step(&mut m.sys, 0, file.pages()) {
        Ok(findings) if !findings.is_empty() => tally.detected_by_scrub += 1,
        Ok(_) => tally.undetected += 1,
        Err(err) => {
            // Controller beat the scrubber: count the detection AND run
            // the same recovery path the inline arm does, so the
            // recovered column is comparable across designs.
            tally.detected_inline += 1;
            if m.recover(err.line.page()).is_ok() {
                tally.recovered += 1;
            }
        }
    }
    tally
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("coverage_campaign", |_cfg, jobs| {
        // One cell per (design, trial): each trial builds its own Machine, so
        // the grid parallelizes at full granularity. Results come back in
        // input order and tally fields are sums, so the aggregates — and the
        // CSV — are identical at every --jobs setting.
        let cells: Vec<Cell<Tally>> = designs()
            .into_iter()
            .flat_map(|design| {
                (0..TRIALS).map(move |trial| {
                    Cell::new(format!("{} trial {trial}", design.label()), move || {
                        run_trial(design, trial)
                    })
                })
            })
            .collect();
        let results = runner::run_cells(cells, jobs);
        let rows: Vec<(Design, Tally)> = designs()
            .into_iter()
            .zip(results.chunks(TRIALS as usize))
            .map(|(design, trials)| {
                let mut tally = Tally::default();
                trials.iter().for_each(|r| tally.merge(&r.value));
                assert_eq!(tally.trials, TRIALS, "lost trials for {}", design.label());
                (design, tally)
            })
            .collect();
        type Col = Column<(Design, Tally)>;
        let cols = [
            Col::new("design", "design", -20, |r| r.0.label()),
            Col::new("inline", "inline", 10, |r| r.1.detected_inline),
            Col::new("wrong_reads", "wrong-reads", 12, |r| r.1.wrong_data_reads),
            Col::new("by_scrub", "by-scrub", 10, |r| r.1.detected_by_scrub),
            Col::new("undetected", "undetected", 10, |r| r.1.undetected),
            Col::new("recovered", "recovered", 12, |r| r.1.recovered),
        ];
        let title =
            format!("# Coverage campaign — {TRIALS} single-bit media corruptions per design");
        Output::sheet(&title, "coverage_campaign.csv", &cols, &rows, |_| true)
    })
}

fn main() {
    campaign().main()
}
