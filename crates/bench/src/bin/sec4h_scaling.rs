//! §IV-H: sensitivity to the number of NVM DIMMs and the NVM technology.
//!
//! Reruns the stream microbenchmarks (where the paper reports the effect)
//! with 8 NVM DIMMs and with battery-backed DRAM standing in for NVM,
//! checking that the relative ordering of designs is unchanged.

use apps::driver::Design;
use apps::stream::Kernel;
use bench::campaign::{figure, Campaign, FigCell};
use bench::workloads::{run_stream_threads, Variant};

/// A machine under test: its label and the variant it makes of a design.
type Machine = (&'static str, fn(Design) -> Variant);

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("sec4h_scaling", |cfg, jobs| {
        let machines: [Machine; 3] = [
            ("4dimm", Variant::of),
            ("8dimm", |d| Variant::of(d).nvm_dimms(8)),
            ("bbdram", |d| Variant::of(d).dram_as_nvm()),
        ];
        let mut cells = Vec::new();
        for (tag, make) in machines {
            for design in Design::fig8() {
                for kernel in [Kernel::Copy, Kernel::Triad] {
                    let label = format!("{tag}/{}", kernel.label());
                    let (s, t) = (cfg.scale.workloads(), cfg.threads);
                    cells.push(FigCell::new(label, design.label(), design, move || {
                        run_stream_threads(make(design), kernel, &s, t)
                    }));
                }
            }
        }
        let title = "§IV-H — NVM DIMM count and NVM technology scaling (stream)";
        figure(title, "sec4h_scaling", false, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
