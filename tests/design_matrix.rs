//! Every design × every application class at smoke scale: functional
//! correctness plus the media-level redundancy invariants each design
//! promises.

use apps::btree::BTree;
use apps::ctree::CTree;
use apps::driver::{Design, Machine};
use apps::fio::{Fio, Pattern};
use apps::kv::PersistentKv;
use apps::nstore::NStore;
use apps::rbtree::RbTree;
use apps::redis::Redis;
use apps::stream::{Kernel, Stream};
use tvarak::controller::TvarakConfig;

fn all_designs() -> Vec<Design> {
    vec![
        Design::Baseline,
        Design::Tvarak,
        Design::TvarakAblated(TvarakConfig::naive()),
        Design::TxbObject,
        Design::TxbPage,
    ]
}

fn machine(design: Design) -> Machine {
    Machine::builder()
        .small()
        .design(design)
        .data_pages(1024)
        .build()
}

#[test]
fn redis_functional_under_every_design() {
    for design in all_designs() {
        let mut m = machine(design);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut r = Redis::create(&mut m, 0, 256 * 1024, 16).unwrap();
        for k in 0..80u64 {
            r.set(&mut m, &mut txm, k, &[k as u8; 8]).unwrap();
        }
        let mut out = Vec::new();
        for k in 0..80u64 {
            assert!(
                r.get(&mut m, &mut txm, k, &mut out).unwrap(),
                "{design}: key {k}"
            );
            assert_eq!(out, [k as u8; 8], "{design}");
        }
        m.flush();
        m.verify_all(r.file()).unwrap_or_else(|bad| {
            panic!("{design}: inconsistent pages {bad:?}");
        });
    }
}

#[test]
fn trees_functional_under_every_design() {
    for design in all_designs() {
        let mut m = machine(design);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut trees: Vec<Box<dyn PersistentKv>> = vec![
            Box::new(CTree::create(&mut m, 0, 256 * 1024).unwrap()),
            Box::new(BTree::create(&mut m, 0, 256 * 1024).unwrap()),
            Box::new(RbTree::create(&mut m, 0, 256 * 1024).unwrap()),
        ];
        for t in trees.iter_mut() {
            for k in 0..60u64 {
                t.insert(&mut m, &mut txm, k * 7 + 1, k).unwrap();
            }
            for k in 0..60u64 {
                assert_eq!(
                    t.get(&mut m, k * 7 + 1).unwrap(),
                    Some(k),
                    "{design}: {}",
                    t.name()
                );
            }
        }
        m.flush();
        for t in &trees {
            m.verify_all(t.file()).unwrap_or_else(|bad| {
                panic!("{design}/{}: inconsistent pages {bad:?}", t.name());
            });
        }
    }
}

#[test]
fn nstore_functional_under_every_design() {
    for design in all_designs() {
        let mut m = machine(design);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut s = NStore::create(&mut m, 64, 128 * 1024).unwrap();
        for i in 0..50u64 {
            s.update(&mut m, &mut txm, 0, i % 64, &[i as u8; 64])
                .unwrap();
        }
        for i in 0..50u64 {
            let _ = s.read(&mut m, 0, i % 64).unwrap();
        }
        m.flush();
        m.verify_all(s.tuple_file())
            .unwrap_or_else(|bad| panic!("{design}: tuples inconsistent {bad:?}"));
        m.verify_all(s.wal_file())
            .unwrap_or_else(|bad| panic!("{design}: wal inconsistent {bad:?}"));
    }
}

#[test]
fn fio_patterns_under_every_design() {
    for design in all_designs() {
        for pattern in Pattern::all() {
            let mut m = machine(design);
            let mut fio = Fio::create(&mut m, 2, 64 * 1024).unwrap();
            let mut txm = match design.sw_scheme() {
                pmemfs::tx::SwScheme::None => None,
                _ => Some(m.tx_manager(32 * 1024).unwrap()),
            };
            for i in 0..256u64 {
                for t in 0..2 {
                    fio.op(&mut m, txm.as_mut(), t, pattern, i).unwrap();
                }
            }
            m.flush();
            for t in 0..2 {
                m.verify_all(fio.region(t)).unwrap_or_else(|bad| {
                    panic!("{design}/{}: inconsistent {bad:?}", pattern.label());
                });
            }
        }
    }
}

#[test]
fn stream_kernels_under_every_design() {
    for design in all_designs() {
        let mut m = machine(design);
        let mut st = Stream::create(&mut m, 2, 64 * 1024).unwrap();
        let mut txm = match design.sw_scheme() {
            pmemfs::tx::SwScheme::None => None,
            _ => Some(m.tx_manager(32 * 1024).unwrap()),
        };
        st.init(&mut m).unwrap();
        for kernel in Kernel::all() {
            for i in 0..st.lines_per_thread() {
                for t in 0..2 {
                    st.op(&mut m, txm.as_mut(), t, kernel, i).unwrap();
                }
            }
        }
        m.flush();
        for f in st.arrays() {
            m.verify_all(f).unwrap_or_else(|bad| {
                panic!("{design}: stream arrays inconsistent {bad:?}");
            });
        }
    }
}

#[test]
fn tvarak_verifies_reads_others_do_not() {
    // Table I's verification column: TVARAK verifies every NVM read; the
    // software schemes and baseline verify none.
    for design in all_designs() {
        let mut m = machine(design);
        let f = m.create_dax_file("x", 64 * 1024).unwrap();
        f.write(&mut m.sys, 0, 0, &[1u8; 4096]).unwrap();
        m.flush();
        for p in 0..f.pages() {
            m.sys.invalidate_page(f.page(p));
        }
        let mut buf = [0u8; 4096];
        f.read(&mut m.sys, 0, 0, &mut buf).unwrap();
        let verified = m.stats().counters.reads_verified;
        match design {
            Design::Tvarak | Design::TvarakAblated(_) => {
                assert!(verified > 0, "{design} must verify reads")
            }
            _ => assert_eq!(verified, 0, "{design} must not verify reads"),
        }
    }
}
