//! Golden digests: the CRC32C and length of every campaign's quick-scale
//! CSV (and the chaos event log), so a refactor that moves an output byte
//! fails `cargo test` instead of waiting for a hand-run `sha256sum`.
//!
//! The digests are pure functions of the simulator: regenerate them (the
//! failure message prints the new tuple) only with a change that means to
//! move simulated results.

mod bins;

use memsim::crc;

/// (campaign, artefact, length, CRC32C).
const GOLDEN: [(&str, &str, usize, u32); 17] = [
    ("chaos_campaign", "chaos_campaign.csv", 15731, 0x6fac2c2e),
    ("chaos_campaign", "chaos_events.log", 435806, 0x2070a1c1),
    (
        "coverage_campaign",
        "coverage_campaign.csv",
        180,
        0xadf1a68a,
    ),
    (
        "crashsim_campaign",
        "crashsim_campaign.csv",
        8094,
        0xf0e4a15d,
    ),
    (
        "degraded_campaign",
        "degraded_campaign.csv",
        6687,
        0x3f5682e1,
    ),
    (
        "fig10_sensitivity",
        "fig10a_redundancy_ways.csv",
        2219,
        0xbe5858bb,
    ),
    (
        "fig10_sensitivity",
        "fig10b_diff_ways.csv",
        2239,
        0xcd34238d,
    ),
    ("fig8_fio", "fig8_fio.csv", 1411, 0x0a03fc6c),
    ("fig8_kv", "fig8_kv.csv", 2364, 0x31e7110d),
    ("fig8_nstore", "fig8_nstore.csv", 1177, 0x3ad46f46),
    ("fig8_redis", "fig8_redis.csv", 789, 0x2734b83d),
    ("fig8_stream", "fig8_stream.csv", 1464, 0x2d133fa4),
    ("fig9_ablation", "fig9_ablation.csv", 2182, 0x15bb3ed1),
    ("sec4h_scaling", "sec4h_scaling.csv", 2121, 0x39808373),
    ("soak_campaign", "soak_campaign.csv", 8113, 0x23018fb4),
    ("soak_campaign 3x256", "soak_campaign.csv", 4629, 0x706c088f),
    ("vilamb_sweep", "vilamb_sweep.csv", 683, 0xb44edf4e),
];

#[test]
fn quick_scale_artefacts_match_their_digests() {
    for (name, run) in bins::ALL {
        let out = run(2);
        let pinned = GOLDEN.iter().filter(|g| g.0 == name);
        assert!(pinned.clone().count() > 0, "{name}: no golden entry");
        for &(_, file, len, crc) in pinned {
            let bytes = out
                .files
                .iter()
                .find(|f| f.0 == file)
                .map(|f| f.1.as_slice());
            let bytes = bytes.unwrap_or_else(|| panic!("{name}: no artefact {file}"));
            let got = (name, file, bytes.len(), !crc::update(u32::MAX, bytes));
            assert_eq!(got, (name, file, len, crc), "{name}: {file} moved");
        }
    }
}
