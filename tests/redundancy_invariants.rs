//! Property tests over the core invariants, on seeded random cases:
//!
//! 1. **Read-your-writes through the hierarchy**: any interleaving of writes
//!    and reads across cores observes the latest data (coherence +
//!    hierarchy correctness).
//! 2. **Durability**: after a flush, the media matches the written state.
//! 3. **Redundancy consistency**: after arbitrary write sequences and a
//!    flush, checksums and parity on the media match the data — under
//!    TVARAK, its ablations, and the software schemes.
//! 4. **Detection**: any single silent media corruption of a DAX-mapped
//!    line is detected on the next read under TVARAK.
//! 5. **Recovery**: any single corrupted page is reconstructed exactly.
//!
//! Every case derives from a fixed seed that its assertion messages name, so
//! a failure reproduces by running that seed alone.

use apps::driver::{Design, Machine};
use apps::rng::splitmix64;
use tvarak::controller::TvarakConfig;

/// A value in `lo..hi`.
fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo)
}

/// The seeds of a property's `cases` cases.
fn seeds(property: u64, cases: u64) -> impl Iterator<Item = u64> {
    (0..cases).map(move |case| (property << 32) | case)
}

/// A generated workload step.
#[derive(Debug, Clone)]
enum Step {
    Write {
        core: usize,
        offset: u64,
        byte: u8,
        len: usize,
    },
    Read {
        core: usize,
        offset: u64,
        len: usize,
    },
}

/// `1..max_len` steps: core `0..2`, offset `0..16000`, length `1..64`.
fn gen_steps(rng: &mut u64, max_len: u64) -> Vec<Step> {
    (0..range(rng, 1, max_len))
        .map(|_| {
            let write = splitmix64(rng) & 1 == 0;
            let core = range(rng, 0, 2) as usize;
            let offset = range(rng, 0, 16000);
            let byte = splitmix64(rng) as u8;
            let len = range(rng, 1, 64) as usize;
            if write {
                Step::Write {
                    core,
                    offset,
                    byte,
                    len,
                }
            } else {
                Step::Read { core, offset, len }
            }
        })
        .collect()
}

/// `1..max_len` transactional writes: offset `0..12000`, any byte, length
/// `1..48`.
fn gen_tx_writes(rng: &mut u64, max_len: u64) -> Vec<(u64, u8, usize)> {
    (0..range(rng, 1, max_len))
        .map(|_| {
            (
                range(rng, 0, 12000),
                splitmix64(rng) as u8,
                range(rng, 1, 48) as usize,
            )
        })
        .collect()
}

fn machine(design: Design) -> Machine {
    Machine::builder()
        .small()
        .design(design)
        .data_pages(256)
        .build()
}

/// Run steps against the simulator and a plain Vec<u8> reference model.
fn run_steps(design: Design, steps: &[Step], seed: u64) -> (Machine, pmemfs::FileHandle, Vec<u8>) {
    let mut m = machine(design);
    let file = m.create_dax_file("prop", 16 * 1024).unwrap();
    let mut reference = vec![0u8; 16 * 1024 + 64];
    for step in steps {
        match *step {
            Step::Write {
                core,
                offset,
                byte,
                len,
            } => {
                let data = vec![byte; len];
                file.write(&mut m.sys, core, offset, &data).unwrap();
                reference[offset as usize..offset as usize + len].copy_from_slice(&data);
            }
            Step::Read { core, offset, len } => {
                let mut buf = vec![0u8; len];
                file.read(&mut m.sys, core, offset, &mut buf).unwrap();
                assert_eq!(
                    buf,
                    reference[offset as usize..offset as usize + len],
                    "seed {seed:#x}: read-your-writes violated at {offset}"
                );
            }
        }
    }
    (m, file, reference)
}

#[test]
fn read_your_writes_and_durability() {
    for seed in seeds(1, 24) {
        let mut rng = seed;
        let steps = gen_steps(&mut rng, 120);
        let (mut m, file, reference) = run_steps(Design::Baseline, &steps, seed);
        m.flush();
        // Durability: media content equals the reference model.
        for off in (0..16 * 1024u64).step_by(64) {
            let media = m.sys.memory().peek_line(file.addr(off).line());
            assert_eq!(
                &media[..],
                &reference[off as usize..off as usize + 64],
                "seed {seed:#x}: media differs at {off}"
            );
        }
    }
}

#[test]
fn tvarak_redundancy_consistent_after_any_writes() {
    for seed in seeds(2, 24) {
        let mut rng = seed;
        let steps = gen_steps(&mut rng, 100);
        let (mut m, file, _) = run_steps(Design::Tvarak, &steps, seed);
        m.flush();
        assert_eq!(m.verify_all(&file), Ok(()), "seed {seed:#x}");
    }
}

#[test]
fn naive_controller_redundancy_consistent() {
    for seed in seeds(3, 24) {
        let mut rng = seed;
        let steps = gen_steps(&mut rng, 40);
        let design = Design::TvarakAblated(TvarakConfig::naive());
        let (mut m, file, _) = run_steps(design, &steps, seed);
        m.flush();
        assert_eq!(m.verify_all(&file), Ok(()), "seed {seed:#x}");
    }
}

#[test]
fn corruption_always_detected_and_recovered() {
    for seed in seeds(4, 24) {
        let mut rng = seed;
        let steps = gen_steps(&mut rng, 60);
        let corrupt_line = range(&mut rng, 0, 256);
        let flip = range(&mut rng, 0, 512) as usize;
        let (mut m, file, reference) = run_steps(Design::Tvarak, &steps, seed);
        m.flush();
        // Corrupt one bit of one line on the media.
        let line = file.addr(corrupt_line * 64).line();
        let mut data = m.sys.memory().peek_line(line);
        data[flip / 8] ^= 1 << (flip % 8);
        m.sys.memory_mut().poke_line(line, &data);
        m.sys.invalidate_page(line.page());
        // Detection.
        let mut buf = [0u8; 64];
        let err = file.read(&mut m.sys, 0, corrupt_line * 64, &mut buf).err();
        assert_eq!(
            err.map(|e| e.line),
            Some(line),
            "seed {seed:#x}: single-bit media corruption must be detected"
        );
        // Recovery restores the reference content exactly.
        assert_eq!(
            m.recover(line.page()),
            Ok(()),
            "seed {seed:#x}: single corruption is recoverable"
        );
        file.read(&mut m.sys, 0, corrupt_line * 64, &mut buf)
            .unwrap();
        let off = (corrupt_line * 64) as usize;
        assert_eq!(&buf[..], &reference[off..off + 64], "seed {seed:#x}");
    }
}

/// Commit each generated write in its own transaction under `design`, then
/// check the media-level redundancy invariants.
fn sw_scheme_consistent_after_tx_writes(design: Design, property: u64, max_len: u64) {
    for seed in seeds(property, 10) {
        let mut rng = seed;
        let writes = gen_tx_writes(&mut rng, max_len);
        let mut m = machine(design);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let file = m.create_dax_file("prop", 16 * 1024).unwrap();
        for (offset, byte, len) in writes {
            let mut tx = txm.begin(&mut m.sys, 0).unwrap();
            tx.write(&mut m.sys, &file, offset, &vec![byte; len])
                .unwrap();
            tx.commit(&mut m.sys).unwrap();
        }
        m.flush();
        assert_eq!(m.verify_all(&file), Ok(()), "seed {seed:#x}");
    }
}

#[test]
fn txb_object_scheme_consistent_after_tx_writes() {
    sw_scheme_consistent_after_tx_writes(Design::TxbObject, 5, 30);
}

#[test]
fn txb_page_scheme_consistent_after_tx_writes() {
    sw_scheme_consistent_after_tx_writes(Design::TxbPage, 6, 20);
}

#[test]
fn tx_abort_restores_reference_state() {
    for seed in seeds(7, 10) {
        let mut rng = seed;
        // `1..15` writes each: offset `0..8000`, any byte.
        let gen_writes = |rng: &mut u64| -> Vec<(u64, u8)> {
            (0..range(rng, 1, 15))
                .map(|_| (range(rng, 0, 8000), splitmix64(rng) as u8))
                .collect()
        };
        let committed = gen_writes(&mut rng);
        let aborted = gen_writes(&mut rng);
        let mut m = machine(Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let file = m.create_dax_file("prop", 16 * 1024).unwrap();
        let mut reference = vec![0u8; 16 * 1024];
        // Committed transaction.
        let mut tx = txm.begin(&mut m.sys, 0).unwrap();
        for &(off, b) in &committed {
            tx.write(&mut m.sys, &file, off, &[b; 8]).unwrap();
            reference[off as usize..off as usize + 8].copy_from_slice(&[b; 8]);
        }
        tx.commit(&mut m.sys).unwrap();
        // Aborted transaction: must leave no trace.
        let mut tx = txm.begin(&mut m.sys, 0).unwrap();
        for &(off, b) in &aborted {
            tx.write(&mut m.sys, &file, off, &[b.wrapping_add(1); 8])
                .unwrap();
        }
        tx.abort(&mut m.sys).unwrap();
        let mut buf = vec![0u8; 16 * 1024];
        file.read(&mut m.sys, 0, 0, &mut buf).unwrap();
        assert!(buf == reference, "seed {seed:#x}: abort left a trace");
    }
}
