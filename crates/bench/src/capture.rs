//! Trace capture for campaign binaries.
//!
//! Campaign cells that drive a raw file-I/O stream record each op through
//! the chunked `TVT2` [`TraceWriter`] into a buffer the cell hands back as
//! a `traces/*.tvt2` artefact — campaign runs stay pure, and the driver
//! writes the file with every other result. [`CampaignTrace::finish`]
//! decodes the capture back through [`TraceReader`] — every chunk's CRC and
//! the total record count, not the records' contents — so a capture that
//! fails either check surfaces as a cell violation, not a silently corrupt
//! artefact.

use memsim::addr::PhysAddr;
use memsim::trace::{TraceReader, TraceRecord, TraceWriter};

/// One cell's capture: a `TVT2` writer over an in-memory buffer.
pub struct CampaignTrace {
    writer: TraceWriter<Vec<u8>>,
    name: String,
}

/// Map a cell context label (`app=fio design=Tvarak fault=...`) to a
/// filesystem-safe stem: every non-alphanumeric run collapses to one `-`.
fn sanitize(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut dash = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    out.truncate(out.trim_end_matches('-').len());
    out
}

impl CampaignTrace {
    /// Start capturing the artefact `traces/<sanitized label>.tvt2`.
    pub fn new(label: &str) -> CampaignTrace {
        CampaignTrace {
            writer: TraceWriter::new(Vec::new()).expect("in-memory write"),
            name: format!("traces/{}.tvt2", sanitize(label)),
        }
    }

    /// Append one op.
    pub fn record(&mut self, write: bool, addr: PhysAddr, len: u16) {
        self.writer
            .push(TraceRecord {
                core: 0,
                write,
                addr,
                len,
            })
            .expect("in-memory write");
    }

    /// Close the capture and verify it by decoding it back. Returns the
    /// artefact (name, bytes) and its record count on success; a
    /// human-readable defect otherwise.
    pub fn finish(self) -> Result<((String, Vec<u8>), u64), String> {
        let written = self.writer.records_written();
        let name = self.name;
        let bytes = self.writer.finish().expect("in-memory write");
        let mut r = TraceReader::new(bytes.as_slice())
            .map_err(|e| format!("trace {name}: bad header: {e}"))?;
        for rec in &mut r {
            rec.map_err(|e| format!("trace {name}: decode failed: {e}"))?;
        }
        if r.records_read() != written {
            return Err(format!(
                "trace {name}: decoded {} records, wrote {written}",
                r.records_read()
            ));
        }
        Ok(((name, bytes), written))
    }
}

#[cfg(test)]
mod tests {
    use super::sanitize;

    #[test]
    fn labels_sanitize_to_safe_stems() {
        assert_eq!(
            sanitize("app=fio design=Tvarak fault=sticky bitflips"),
            "app-fio-design-tvarak-fault-sticky-bitflips"
        );
        assert_eq!(sanitize("  ==x== "), "x");
    }
}
