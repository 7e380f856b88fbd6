//! The redundancy designs a [`Machine`](super::Machine) can run, and the
//! names the campaign binaries parse them from.

use pmemfs::tx::SwScheme;
use std::error::Error;
use std::fmt;
use tvarak::controller::TvarakConfig;
use tvarak::scrub::ScrubGranularity;

/// The four designs the paper evaluates (§IV), plus ablated TVARAK variants
/// for Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// No redundancy (the paper's Baseline).
    Baseline,
    /// The full TVARAK hardware controller.
    Tvarak,
    /// TVARAK with specific design elements disabled (Fig. 9 ablations).
    TvarakAblated(TvarakConfig),
    /// Pangolin-like software scheme: object-granular checksums at
    /// transaction boundaries (TxB-Object-Csums).
    TxbObject,
    /// Mojim/HotPot-like software scheme: page-granular checksums at
    /// transaction boundaries (TxB-Page-Csums).
    TxbPage,
    /// Vilamb-like asynchronous software redundancy (Table I): page-granular
    /// checksums refreshed every `epoch_txs` transactions, trading a
    /// vulnerability window for configurable overhead.
    Vilamb {
        /// Transactions per redundancy-refresh epoch.
        epoch_txs: u32,
    },
}

/// Default Vilamb epoch length used where a campaign needs *one*
/// representative configuration (the middle of the `vilamb_sweep` range).
pub const DEFAULT_VILAMB_EPOCH_TXS: u32 = 100;

impl Design {
    /// The four Fig. 8 designs in the paper's presentation order.
    pub fn fig8() -> [Design; 4] {
        [
            Design::Baseline,
            Design::Tvarak,
            Design::TxbObject,
            Design::TxbPage,
        ]
    }

    /// The five concrete designs campaigns sweep: the Fig. 8 four plus a
    /// representative Vilamb configuration. Ablated TVARAK variants are
    /// excluded — they are Fig. 9 point studies, not standalone designs.
    pub fn all() -> [Design; 5] {
        [
            Design::Baseline,
            Design::Tvarak,
            Design::TxbObject,
            Design::TxbPage,
            Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS,
            },
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Design::Baseline => "Baseline",
            Design::Tvarak => "Tvarak",
            Design::TvarakAblated(_) => "Tvarak(ablated)",
            Design::TxbObject => "TxB-Object-Csums",
            Design::TxbPage => "TxB-Page-Csums",
            Design::Vilamb { .. } => "Vilamb",
        }
    }

    /// The software redundancy scheme this design runs at commit.
    pub fn sw_scheme(&self) -> SwScheme {
        match self {
            Design::TxbObject => SwScheme::TxbObject,
            Design::TxbPage => SwScheme::TxbPage,
            Design::Vilamb { epoch_txs } => SwScheme::Vilamb {
                epoch_txs: *epoch_txs,
            },
            _ => SwScheme::None,
        }
    }

    /// Whether this design instantiates the hardware controller.
    pub fn has_controller(&self) -> bool {
        matches!(self, Design::Tvarak | Design::TvarakAblated(_))
    }

    /// The checksum granularity this design maintains, or `None` for
    /// Baseline (which maintains no redundancy and can neither scrub nor
    /// recover).
    pub fn checksum_granularity(&self) -> Option<ScrubGranularity> {
        match self {
            Design::Baseline => None,
            Design::Tvarak | Design::TxbObject => Some(ScrubGranularity::CacheLine),
            Design::TvarakAblated(tc) => Some(tc.checksum_granularity()),
            Design::TxbPage | Design::Vilamb { .. } => Some(ScrubGranularity::Page),
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The design names `Design`'s [`FromStr`](std::str::FromStr) impl
/// accepts, for error messages and usage strings.
pub const DESIGN_NAMES: &str = "baseline, tvarak, naive, tvarak-nodiff, \
     tvarak-stall, tvarak-nocache, txb-object, txb-page, vilamb, \
     vilamb:<epoch_txs>";

/// A design name the command line could not be parsed into a [`Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError {
    input: String,
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown design `{}`; valid designs: {DESIGN_NAMES}",
            self.input
        )
    }
}

impl Error for ParseDesignError {}

impl std::str::FromStr for Design {
    type Err = ParseDesignError;

    /// Parse the kebab-case design names the campaign binaries take on the
    /// command line. `vilamb` uses [`DEFAULT_VILAMB_EPOCH_TXS`];
    /// `vilamb:<n>` selects an explicit epoch length.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDesignError {
            input: s.to_string(),
        };
        let ablated = |f: fn(&mut TvarakConfig)| {
            let mut tc = TvarakConfig::default();
            f(&mut tc);
            Design::TvarakAblated(tc)
        };
        Ok(match s.to_ascii_lowercase().as_str() {
            "baseline" => Design::Baseline,
            "tvarak" => Design::Tvarak,
            "naive" => Design::TvarakAblated(TvarakConfig::naive()),
            "tvarak-nodiff" => ablated(|tc| tc.data_diffs = false),
            "tvarak-stall" => ablated(|tc| tc.overlapped_verification = false),
            "tvarak-nocache" => ablated(|tc| tc.redundancy_caching = false),
            "txb-object" => Design::TxbObject,
            "txb-page" => Design::TxbPage,
            "vilamb" => Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS,
            },
            other => match other.strip_prefix("vilamb:") {
                Some(n) => Design::Vilamb {
                    epoch_txs: n.parse().map_err(|_| err())?,
                },
                None => return Err(err()),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designs_report_labels_and_schemes() {
        assert_eq!(Design::Baseline.label(), "Baseline");
        assert_eq!(Design::TxbObject.sw_scheme(), SwScheme::TxbObject);
        assert_eq!(Design::Tvarak.sw_scheme(), SwScheme::None);
        assert_eq!(Design::fig8().len(), 4);
    }

    #[test]
    fn all_extends_fig8_with_vilamb() {
        let all = Design::all();
        assert_eq!(&all[..4], &Design::fig8()[..]);
        assert_eq!(
            all[4],
            Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS
            }
        );
    }

    #[test]
    fn designs_parse_from_str() {
        assert_eq!("baseline".parse(), Ok(Design::Baseline));
        assert_eq!("Tvarak".parse(), Ok(Design::Tvarak));
        assert_eq!("txb-object".parse(), Ok(Design::TxbObject));
        assert_eq!("txb-page".parse(), Ok(Design::TxbPage));
        assert_eq!("vilamb:7".parse(), Ok(Design::Vilamb { epoch_txs: 7 }));
        assert_eq!(
            "vilamb".parse(),
            Ok(Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS
            })
        );
        assert_eq!(
            "naive".parse::<Design>().unwrap().label(),
            "Tvarak(ablated)"
        );
        // TVARAK always verifies DAX fills (§III-E): no ablation turns it off.
        assert!("Tvarak-NoVerify".parse::<Design>().is_err());
        let err = "bogus".parse::<Design>().unwrap_err().to_string();
        assert!(err.contains("bogus") && err.contains("txb-page"), "{err}");
        assert!("vilamb:x".parse::<Design>().is_err());
    }
}
