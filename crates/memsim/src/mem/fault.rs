//! Firmware fault injection. The firmware bugs of §II-A are modelled at
//! exactly this level — *below* every cache and every checksum, where
//! device firmware lives:
//!
//! - **Lost write**: the device acknowledges a line write but never updates
//!   the media.
//! - **Misdirected write**: the data is written to the wrong media location
//!   (corrupting that location, and leaving the intended one stale).
//! - **Misdirected read**: a read returns data from the wrong media location.
//! - **Torn write**: only a prefix of the line persists (partial-line
//!   persist across a power cut or a buggy row buffer).
//! - **Sticky** variants of the above: the fault fires on *every* access
//!   while armed, modelling a failed cell or a wedged firmware mapping.
//!   Sticky faults defeat in-place repair — recovery writes go through the
//!   same firmware — which is what forces a page into quarantine.
//!
//! Device-level ECC cannot catch these (the ECC travels with the data), which
//! is why the paper's system-checksums exist; our verification tests exercise
//! that end to end. This is the one fault vocabulary: tests, examples and
//! campaigns arm a [`FirmwareFault`] on a line with [`Memory::arm_fault`].

use super::Memory;
use crate::addr::LineAddr;

/// A firmware bug armed against a specific media location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirmwareFault {
    /// The next write to the armed line is acknowledged but dropped.
    LostWrite,
    /// The next write to the armed line is stored at `actual` instead.
    MisdirectedWrite {
        /// Where the firmware erroneously writes the data.
        actual: LineAddr,
    },
    /// The next read of the armed line returns the contents of `actual`.
    MisdirectedRead {
        /// Where the firmware erroneously reads from.
        actual: LineAddr,
    },
    /// The next write persists only its first `persist_bytes` bytes; the
    /// tail of the line keeps the old media contents (torn write).
    TornWrite {
        /// Bytes of the line that actually persist (clamped to the line size).
        persist_bytes: usize,
    },
    /// Every write to the armed line is acknowledged but dropped, until
    /// disarmed. Repair writes are dropped too, so recovery cannot restore
    /// the line in place — the quarantine path.
    StickyLostWrite,
    /// Every read of the armed line returns the contents of `actual`, until
    /// disarmed.
    StickyMisdirectedRead {
        /// Where the firmware erroneously reads from.
        actual: LineAddr,
    },
}

impl FirmwareFault {
    /// Whether the fault stays armed after firing.
    fn is_sticky(&self) -> bool {
        matches!(
            self,
            FirmwareFault::StickyLostWrite | FirmwareFault::StickyMisdirectedRead { .. }
        )
    }
}

/// A record of a fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// The line the access targeted.
    pub target: LineAddr,
    /// The fault that fired.
    pub fault: FirmwareFault,
}

impl Memory {
    /// Record a firing and remove the fault unless it is sticky.
    pub(super) fn fire(&mut self, line: LineAddr, fault: FirmwareFault) {
        if !fault.is_sticky() {
            self.armed.remove(&line);
        }
        self.fired.push(FiredFault {
            target: line,
            fault,
        });
    }

    /// Arm a firmware fault against `line` (one-shot unless the variant is
    /// sticky). A newly armed fault replaces any previously armed fault on
    /// the same line.
    pub fn arm_fault(&mut self, line: LineAddr, fault: FirmwareFault) {
        self.armed.insert(line, fault);
    }

    /// Disarm whatever fault is armed on `line` (the only way a sticky fault
    /// goes away — models replacing the failed device region). Returns the
    /// fault that was armed, if any.
    pub fn disarm_fault(&mut self, line: LineAddr) -> Option<FirmwareFault> {
        self.armed.remove(&line)
    }

    /// Faults that have fired so far, in firing order.
    pub fn fired_faults(&self) -> &[FiredFault] {
        &self.fired
    }

    /// Number of faults still armed.
    pub fn armed_faults(&self) -> usize {
        self.armed.len()
    }

    /// Disarm every armed fault (models replacing the failed device).
    /// Returns how many were disarmed.
    pub fn disarm_all_faults(&mut self) -> usize {
        let n = self.armed.len();
        self.armed.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CACHE_LINE;
    use crate::mem::tests::nvm_line;

    #[test]
    fn lost_write_drops_data_once() {
        let mut m = Memory::new(4);
        let l = nvm_line(0, 0);
        m.write_line(l, &[1u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::LostWrite);
        m.write_line(l, &[2u8; CACHE_LINE]);
        // The write was acknowledged but the media still has the old data.
        assert_eq!(m.read_line(l)[0], 1);
        assert_eq!(m.fired_faults().len(), 1);
        // Fault is one-shot: the next write lands.
        m.write_line(l, &[3u8; CACHE_LINE]);
        assert_eq!(m.read_line(l)[0], 3);
    }

    #[test]
    fn misdirected_write_corrupts_other_location() {
        let mut m = Memory::new(4);
        let green = nvm_line(1, 0);
        let blue = nvm_line(2, 0);
        m.write_line(blue, &[0xbbu8; CACHE_LINE]);
        m.arm_fault(green, FirmwareFault::MisdirectedWrite { actual: blue });
        m.write_line(green, &[0x99u8; CACHE_LINE]);
        // Intended location is stale; victim location got clobbered (Fig. 2).
        assert_eq!(m.read_line(green)[0], 0);
        assert_eq!(m.read_line(blue)[0], 0x99);
    }

    #[test]
    fn misdirected_read_returns_wrong_data() {
        let mut m = Memory::new(4);
        let a = nvm_line(0, 1);
        let b = nvm_line(0, 2);
        m.write_line(a, &[1u8; CACHE_LINE]);
        m.write_line(b, &[2u8; CACHE_LINE]);
        m.arm_fault(a, FirmwareFault::MisdirectedRead { actual: b });
        assert_eq!(m.read_line(a)[0], 2);
        // One-shot.
        assert_eq!(m.read_line(a)[0], 1);
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let mut m = Memory::new(4);
        let l = nvm_line(0, 0);
        m.write_line(l, &[0x11u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::TornWrite { persist_bytes: 8 });
        m.write_line(l, &[0x22u8; CACHE_LINE]);
        let got = m.read_line(l);
        assert_eq!(&got[..8], &[0x22u8; 8]);
        assert_eq!(&got[8..], &[0x11u8; CACHE_LINE - 8]);
        // One-shot: the next write lands whole.
        m.write_line(l, &[0x33u8; CACHE_LINE]);
        assert_eq!(m.read_line(l), [0x33u8; CACHE_LINE]);
    }

    #[test]
    fn sticky_lost_write_defeats_repair_until_disarmed() {
        let mut m = Memory::new(4);
        let l = nvm_line(2, 7);
        m.write_line(l, &[1u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::StickyLostWrite);
        for _ in 0..3 {
            m.write_line(l, &[9u8; CACHE_LINE]);
            assert_eq!(m.read_line(l)[0], 1, "sticky fault must drop every write");
        }
        assert_eq!(m.fired_faults().len(), 3);
        assert_eq!(m.armed_faults(), 1);
        assert_eq!(m.disarm_fault(l), Some(FirmwareFault::StickyLostWrite));
        m.write_line(l, &[9u8; CACHE_LINE]);
        assert_eq!(m.read_line(l)[0], 9);
    }

    #[test]
    fn sticky_misdirected_read_fires_every_time() {
        let mut m = Memory::new(4);
        let a = nvm_line(0, 1);
        let b = nvm_line(0, 2);
        m.write_line(a, &[1u8; CACHE_LINE]);
        m.write_line(b, &[2u8; CACHE_LINE]);
        m.arm_fault(a, FirmwareFault::StickyMisdirectedRead { actual: b });
        assert_eq!(m.read_line(a)[0], 2);
        assert_eq!(m.read_line(a)[0], 2);
        assert_eq!(
            m.disarm_fault(a),
            Some(FirmwareFault::StickyMisdirectedRead { actual: b })
        );
        assert_eq!(m.read_line(a)[0], 1);
    }

    #[test]
    fn peek_bypasses_faults() {
        let mut m = Memory::new(2);
        let l = nvm_line(0, 0);
        m.write_line(l, &[7u8; CACHE_LINE]);
        m.arm_fault(
            l,
            FirmwareFault::MisdirectedRead {
                actual: nvm_line(1, 0),
            },
        );
        assert_eq!(m.peek_line(l)[0], 7);
        assert_eq!(m.armed_faults(), 1);
    }
}
