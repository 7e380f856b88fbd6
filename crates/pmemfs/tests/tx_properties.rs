//! Property tests of the transaction layer on seeded random cases (16 per
//! property): atomicity of aborts, scheme-independent durability, and
//! Vilamb epoch accounting. Every assertion names its case's seed.

use memsim::config::SystemConfig;
use memsim::engine::{NullHooks, System};
use memsim::hash::splitmix64;
use pmemfs::fs::DaxFs;
use pmemfs::tx::{SwScheme, TxManager};
use tvarak::layout::NvmLayout;
use tvarak::scrub::ScrubGranularity;

const CASES: u64 = 16;

/// A value in `lo..hi`.
fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo)
}

/// The seeds of a property's cases.
fn seeds(property: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| (property << 32) | case)
}

/// `1..max_len` writes: offset `0..30000`, any byte, length `1..40`.
fn gen_writes(rng: &mut u64, max_len: u64) -> Vec<(u64, u8, usize)> {
    (0..range(rng, 1, max_len))
        .map(|_| {
            (
                range(rng, 0, 30000),
                splitmix64(rng) as u8,
                range(rng, 1, 40) as usize,
            )
        })
        .collect()
}

fn setup(scheme: SwScheme) -> (System, DaxFs, TxManager, pmemfs::FileHandle) {
    let cfg = SystemConfig::small();
    let layout = NvmLayout::new(cfg.nvm.dimms, 64);
    let mut sys = System::new(cfg, Box::new(NullHooks));
    let mut fs = DaxFs::new(layout, &mut sys);
    let txm = TxManager::new(&mut fs, &mut sys, 1, scheme, 64 * 1024).unwrap();
    let f = fs.create(&mut sys, 8 * 4096).unwrap();
    fs.dax_map(&mut sys, &f);
    (sys, fs, txm, f)
}

/// Aborted transactions leave no trace; committed ones fully apply —
/// under arbitrary interleavings of both (`1..12` transactions of `1..8`
/// writes each).
#[test]
fn abort_atomicity() {
    for seed in seeds(1) {
        let mut rng = seed;
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        let mut reference = vec![0u8; f.len() as usize];
        for _ in 0..range(&mut rng, 1, 12) {
            let writes = gen_writes(&mut rng, 8);
            let commit = splitmix64(&mut rng) & 1 == 0;
            let mut tx = txm.begin(&mut sys, 0).unwrap();
            let mut staged = reference.clone();
            for (off, byte, len) in writes {
                let data = vec![byte; len];
                tx.write(&mut sys, &f, off, &data).unwrap();
                staged[off as usize..off as usize + len].copy_from_slice(&data);
            }
            if commit {
                tx.commit(&mut sys).unwrap();
                reference = staged;
            } else {
                tx.abort(&mut sys).unwrap();
            }
            // The file matches the reference model exactly.
            let mut buf = vec![0u8; f.len() as usize];
            f.read(&mut sys, 0, 0, &mut buf).unwrap();
            assert!(
                buf == reference,
                "seed {seed:#x}: file differs from the reference model"
            );
        }
    }
}

/// Every software scheme leaves media-level redundancy consistent after
/// committed transactions + flush (and for Vilamb, an epoch flush).
#[test]
fn schemes_preserve_redundancy() {
    for seed in seeds(2) {
        let mut rng = seed;
        let writes = gen_writes(&mut rng, 10);
        let schemes = [
            (SwScheme::TxbObject, ScrubGranularity::CacheLine),
            (SwScheme::TxbPage, ScrubGranularity::Page),
            (SwScheme::Vilamb { epoch_txs: 3 }, ScrubGranularity::Page),
        ];
        let (scheme, granularity) = schemes[range(&mut rng, 0, 3) as usize];
        let (mut sys, fs, mut txm, f) = setup(scheme);
        for (off, byte, len) in writes {
            let mut tx = txm.begin(&mut sys, 0).unwrap();
            tx.write(&mut sys, &f, off, &vec![byte; len]).unwrap();
            tx.commit(&mut sys).unwrap();
        }
        txm.vilamb_flush(&mut sys, 0).unwrap();
        sys.flush();
        assert_eq!(
            fs.audit(&sys, &f, granularity),
            vec![],
            "seed {seed:#x}: {scheme:?} checksums and parity"
        );
    }
}

/// The undo log handles back-to-back full-capacity transactions without
/// leaking space (the log resets at begin).
#[test]
fn undo_log_space_is_reusable() {
    for seed in seeds(3) {
        let mut rng = seed;
        let rounds = range(&mut rng, 1, 20) as u8;
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        for r in 0..rounds {
            let mut tx = txm.begin(&mut sys, 0).unwrap();
            // ~32 KB of logged writes per tx against a 64 KB log.
            for i in 0..8u64 {
                tx.write(&mut sys, &f, i * 4096, &vec![r; 4000]).unwrap();
            }
            tx.commit(&mut sys).unwrap();
        }
        let mut buf = vec![0u8; 4000];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == rounds - 1),
            "seed {seed:#x}: {rounds} rounds"
        );
    }
}
