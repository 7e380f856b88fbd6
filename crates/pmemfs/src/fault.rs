//! File-level firmware fault injection (the §II-A bug taxonomy, targeted at
//! file offsets instead of raw physical lines).

use crate::fs::FileHandle;
use memsim::engine::System;
use memsim::mem::FirmwareFault;

/// A firmware bug to arm against a file location (one-shot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next write to the line containing `offset` is acknowledged but
    /// never reaches the media (Fig. 1).
    LostWrite {
        /// Byte offset within the file.
        offset: u64,
    },
    /// The next write to the line containing `offset` lands on the line
    /// containing `victim_offset` instead (Fig. 2).
    MisdirectedWrite {
        /// Byte offset within the file whose write is misdirected.
        offset: u64,
        /// Byte offset within the file that gets clobbered.
        victim_offset: u64,
    },
    /// The next read of the line containing `offset` returns the content of
    /// the line containing `source_offset`.
    MisdirectedRead {
        /// Byte offset within the file whose read is misdirected.
        offset: u64,
        /// Byte offset within the file whose content is returned instead.
        source_offset: u64,
    },
}

impl std::fmt::Display for Fault {
    /// Canonical CLI/env syntax, parseable back by [`FromStr`](std::str::FromStr):
    ///
    /// ```text
    /// lost-write@128
    /// misdir-write@128->256      (write for 128 lands on 256)
    /// misdir-read@128<-256       (read of 128 returns 256's content)
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::LostWrite { offset } => write!(f, "lost-write@{offset}"),
            Fault::MisdirectedWrite {
                offset,
                victim_offset,
            } => write!(f, "misdir-write@{offset}->{victim_offset}"),
            Fault::MisdirectedRead {
                offset,
                source_offset,
            } => write!(f, "misdir-read@{offset}<-{source_offset}"),
        }
    }
}

/// Error parsing a [`Fault`] from its CLI/env syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError(String);

impl std::fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad fault spec {:?} (expected lost-write@OFF, \
             misdir-write@OFF->VICTIM, or misdir-read@OFF<-SRC)",
            self.0
        )
    }
}

impl std::error::Error for ParseFaultError {}

impl std::str::FromStr for Fault {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseFaultError(s.to_string());
        let (kind, rest) = s.split_once('@').ok_or_else(err)?;
        let off = |t: &str| t.trim().parse::<u64>().map_err(|_| err());
        match kind.trim() {
            "lost-write" => Ok(Fault::LostWrite { offset: off(rest)? }),
            "misdir-write" => {
                let (a, b) = rest.split_once("->").ok_or_else(err)?;
                Ok(Fault::MisdirectedWrite {
                    offset: off(a)?,
                    victim_offset: off(b)?,
                })
            }
            "misdir-read" => {
                let (a, b) = rest.split_once("<-").ok_or_else(err)?;
                Ok(Fault::MisdirectedRead {
                    offset: off(a)?,
                    source_offset: off(b)?,
                })
            }
            _ => Err(err()),
        }
    }
}

/// Arm `fault` against `file` in the device firmware.
pub fn inject(sys: &mut System, file: &FileHandle, fault: Fault) {
    match fault {
        Fault::LostWrite { offset } => {
            sys.memory_mut()
                .arm_fault(file.addr(offset).line(), FirmwareFault::LostWrite);
        }
        Fault::MisdirectedWrite {
            offset,
            victim_offset,
        } => {
            let actual = file.addr(victim_offset).line();
            sys.memory_mut()
                .arm_fault(file.addr(offset).line(), FirmwareFault::MisdirectedWrite { actual });
        }
        Fault::MisdirectedRead {
            offset,
            source_offset,
        } => {
            let actual = file.addr(source_offset).line();
            sys.memory_mut()
                .arm_fault(file.addr(offset).line(), FirmwareFault::MisdirectedRead { actual });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::DaxFs;
    use memsim::config::SystemConfig;
    use memsim::engine::NullHooks;
    use tvarak::layout::NvmLayout;

    #[test]
    fn fault_display_fromstr_roundtrip() {
        let cases = [
            Fault::LostWrite { offset: 128 },
            Fault::MisdirectedWrite {
                offset: 128,
                victim_offset: 256,
            },
            Fault::MisdirectedRead {
                offset: 128,
                source_offset: 256,
            },
        ];
        for fault in cases {
            let s = fault.to_string();
            assert_eq!(s.parse::<Fault>().unwrap(), fault, "roundtrip of {s}");
        }
        assert_eq!(
            "lost-write@128".parse::<Fault>().unwrap(),
            Fault::LostWrite { offset: 128 }
        );
        assert_eq!(
            "misdir-write@128->256".parse::<Fault>().unwrap(),
            Fault::MisdirectedWrite { offset: 128, victim_offset: 256 }
        );
        assert_eq!(
            "misdir-read@128<-256".parse::<Fault>().unwrap(),
            Fault::MisdirectedRead { offset: 128, source_offset: 256 }
        );
        for bad in ["", "lost-write", "lost-write@x", "misdir-write@1",
                    "misdir-write@1<-2", "misdir-read@1->2", "gamma-ray@9"] {
            assert!(bad.parse::<Fault>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn injected_lost_write_fires_on_writeback() {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 8);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let mut fs = DaxFs::new(layout, &mut sys);
        let f = fs.create(&mut sys, 4096).unwrap();
        inject(&mut sys, &f, Fault::LostWrite { offset: 128 });
        f.write(&mut sys, 0, 128, &[1u8; 64]).unwrap();
        sys.flush();
        // Baseline has no checksums: the loss is silent.
        assert_eq!(sys.memory().peek_line(f.addr(128).line()), [0u8; 64]);
        assert_eq!(sys.memory().fired_faults().len(), 1);
    }
}
