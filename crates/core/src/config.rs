//! Declarative predictor configurations.
//!
//! [`PredictorConfig`] names every scheme the workspace can simulate,
//! builds it (as a kernel or a boxed predictor), and round-trips through
//! a compact text syntax (`"gshare:h=8,c=4"`) so experiment binaries can
//! take predictors on the command line.

use std::fmt;
use std::str::FromStr;

use crate::{BranchPredictor, TableGeometry, WalkPlan};

/// A buildable description of one predictor configuration.
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
///
/// let cfg: PredictorConfig = "gshare:h=8,c=4".parse()?;
/// assert_eq!(cfg.counters(), 4096);
/// let mut predictor = cfg.build();
/// assert_eq!(predictor.name(), "gshare(2^8 x 2^4)");
/// assert_eq!(cfg.to_string(), "gshare:h=8,c=4");
/// # Ok::<(), bpred_core::ParseConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PredictorConfig {
    /// Static always-taken.
    AlwaysTaken,
    /// Static always-not-taken.
    AlwaysNotTaken,
    /// Static backward-taken/forward-not-taken.
    Btfn,
    /// One-bit last-time table of `2^addr_bits` entries.
    LastTime {
        /// log2 of the table size.
        addr_bits: u32,
    },
    /// Address-indexed two-bit counters (`2^addr_bits` of them).
    AddressIndexed {
        /// log2 of the table size.
        addr_bits: u32,
    },
    /// GAs (GAg when `col_bits == 0`).
    Gas {
        /// Global-history length = log2 of the row count.
        history_bits: u32,
        /// log2 of the column count.
        col_bits: u32,
    },
    /// gshare.
    Gshare {
        /// Global-history length = log2 of the row count.
        history_bits: u32,
        /// log2 of the column count.
        col_bits: u32,
    },
    /// Nair's path-based scheme.
    Path {
        /// log2 of the row count (total path-register bits).
        row_bits: u32,
        /// log2 of the column count.
        col_bits: u32,
        /// Bits contributed by each destination address.
        bits_per_target: u32,
    },
    /// PAs with an unbounded first-level table (PAg when
    /// `col_bits == 0`).
    PasInfinite {
        /// Per-branch history length = log2 of the row count.
        history_bits: u32,
        /// log2 of the column count.
        col_bits: u32,
    },
    /// PAs with a finite set-associative first-level table.
    PasFinite {
        /// Per-branch history length = log2 of the row count.
        history_bits: u32,
        /// log2 of the column count.
        col_bits: u32,
        /// First-level entries (power of two).
        entries: u32,
        /// First-level associativity.
        ways: u32,
    },
    /// McFarling tournament: address-indexed + gshare components with a
    /// per-address chooser.
    Tournament {
        /// log2 of the bimodal component's table.
        addr_bits: u32,
        /// gshare component history length (single column).
        history_bits: u32,
        /// log2 of the chooser table size.
        chooser_bits: u32,
    },
    /// Per-set history (SAg when `col_bits == 0`).
    Sas {
        /// Per-set history length = log2 of the row count.
        history_bits: u32,
        /// log2 of the number of history sets.
        set_bits: u32,
        /// log2 of the column count.
        col_bits: u32,
    },
    /// Agree predictor (Sprangle et al. 1997): gshare-indexed
    /// agreement counters against BTB-resident bias bits.
    Agree {
        /// Global-history length.
        history_bits: u32,
        /// log2 of the agreement-counter table.
        index_bits: u32,
    },
    /// Bi-mode predictor (Lee, Chen & Mudge 1997).
    BiMode {
        /// Global-history length.
        history_bits: u32,
        /// log2 of each direction table.
        direction_bits: u32,
        /// log2 of the choice table.
        choice_bits: u32,
    },
    /// gskew predictor (Michaud, Seznec & Uhlig 1997): three banks
    /// with a majority vote.
    Gskew {
        /// Global-history length.
        history_bits: u32,
        /// log2 of each bank.
        bank_bits: u32,
    },
    /// YAGS (Eden & Mudge 1998): bias PHT + tagged exception caches.
    Yags {
        /// log2 of the choice PHT.
        choice_bits: u32,
        /// log2 of each direction cache (also the history length).
        cache_bits: u32,
        /// Tag width (1..=8).
        tag_bits: u32,
    },
}

impl PredictorConfig {
    /// Builds the predictor this configuration describes, boxed behind
    /// the trait (the [`kernel`](Self::kernel) with dynamic dispatch).
    pub fn build(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.kernel())
    }

    /// The configuration's stable canonical identifier.
    ///
    /// This is the compact `scheme:k=v,...` syntax (the same text
    /// [`Display`](fmt::Display) renders and [`FromStr`] parses), with
    /// every structural parameter spelled out. It is injective — two
    /// distinct configurations never share an id — and stable across
    /// releases, which makes it the canonical label for report rows
    /// and the configuration component of persistent cache keys
    /// (`bpred-serve` hashes it into its content addresses, so
    /// changing the format requires an engine-version bump there).
    ///
    /// Prefer this over the built predictor's `name()` when the label
    /// must round-trip: `name()` is a human-readable description
    /// (`"gshare(2^8 x 2^4)"`), while `config_id()` parses back into
    /// the configuration (`"gshare:h=8,c=4"`).
    ///
    /// # Examples
    ///
    /// ```
    /// use bpred_core::PredictorConfig;
    ///
    /// let cfg = PredictorConfig::Gshare { history_bits: 8, col_bits: 4 };
    /// assert_eq!(cfg.config_id(), "gshare:h=8,c=4");
    /// assert_eq!(cfg.config_id().parse::<PredictorConfig>().unwrap(), cfg);
    /// ```
    pub fn config_id(&self) -> String {
        self.to_string()
    }

    /// Number of second-level two-bit counters (0 for static schemes;
    /// for the tournament, the sum over components and chooser). The
    /// tier key of the paper's constant-cost comparisons, read off the
    /// configuration's [`WalkPlan`], the one place that knows table
    /// geometry.
    ///
    /// Every parsed configuration has table widths within
    /// [`TableGeometry::MAX_TOTAL_BITS`], so the count never
    /// overflows.
    pub fn counters(&self) -> u64 {
        WalkPlan::of(self).map_or(0, |plan| plan.cells())
    }

    /// Index widths (log2 of the entry count) of every table the
    /// configuration builds, each with the parameters that set it.
    fn table_widths(&self) -> Vec<(&'static str, u64)> {
        let w = u64::from;
        match *self {
            PredictorConfig::AlwaysTaken
            | PredictorConfig::AlwaysNotTaken
            | PredictorConfig::Btfn => vec![],
            PredictorConfig::LastTime { addr_bits }
            | PredictorConfig::AddressIndexed { addr_bits } => vec![("a", w(addr_bits))],
            PredictorConfig::Gas {
                history_bits,
                col_bits,
            }
            | PredictorConfig::Gshare {
                history_bits,
                col_bits,
            }
            | PredictorConfig::PasInfinite {
                history_bits,
                col_bits,
            }
            | PredictorConfig::Sas {
                history_bits,
                col_bits,
                ..
            } => vec![("h+c", w(history_bits) + w(col_bits))],
            PredictorConfig::PasFinite {
                history_bits,
                col_bits,
                entries,
                ..
            } => vec![
                ("h+c", w(history_bits) + w(col_bits)),
                ("log2(e)", w(entries.trailing_zeros())),
            ],
            PredictorConfig::Path {
                row_bits, col_bits, ..
            } => vec![("r+c", w(row_bits) + w(col_bits))],
            PredictorConfig::Tournament {
                addr_bits,
                history_bits,
                chooser_bits,
            } => vec![
                ("a", w(addr_bits)),
                ("h", w(history_bits)),
                ("k", w(chooser_bits)),
            ],
            PredictorConfig::Agree { index_bits, .. } => vec![("i", w(index_bits))],
            PredictorConfig::BiMode {
                direction_bits,
                choice_bits,
                ..
            } => vec![("d", w(direction_bits)), ("k", w(choice_bits))],
            PredictorConfig::Gskew { bank_bits, .. } => vec![("b", w(bank_bits))],
            PredictorConfig::Yags {
                choice_bits,
                cache_bits,
                ..
            } => vec![("k", w(choice_bits)), ("b", w(cache_bits))],
        }
    }

    /// Rejects what [`build`](Self::build) would panic on: each
    /// family's structural limits, then any table index width over
    /// [`TableGeometry::MAX_TOTAL_BITS`].
    fn check_buildable(&self) -> Result<(), ParseConfigError> {
        let (ok, limit) = match *self {
            PredictorConfig::Path {
                bits_per_target, ..
            } => (
                (1..=16).contains(&bits_per_target),
                "path needs 1 <= q <= 16",
            ),
            PredictorConfig::PasFinite { entries, ways, .. } => (
                entries.is_power_of_two() && ways.is_power_of_two() && ways <= entries,
                "pas needs power-of-two e and w with w <= e",
            ),
            PredictorConfig::Sas { set_bits, .. } => (set_bits <= 20, "sas needs s <= 20"),
            PredictorConfig::Agree {
                history_bits,
                index_bits,
            } => (history_bits <= index_bits, "agree needs h <= i"),
            PredictorConfig::BiMode {
                history_bits,
                direction_bits,
                ..
            } => (history_bits <= direction_bits, "bimode needs h <= d"),
            PredictorConfig::Gskew {
                history_bits,
                bank_bits,
            } => (
                history_bits <= 64 && bank_bits <= 24,
                "gskew needs h <= 64 and b <= 24",
            ),
            PredictorConfig::Yags { tag_bits, .. } => {
                ((1..=8).contains(&tag_bits), "yags needs 1 <= t <= 8")
            }
            _ => (true, ""),
        };
        if !ok {
            return Err(ParseConfigError::new(format!("{limit}, got {self}")));
        }
        let max = TableGeometry::MAX_TOTAL_BITS;
        match self
            .table_widths()
            .into_iter()
            .find(|&(_, width)| width > u64::from(max))
        {
            Some((params, width)) => Err(ParseConfigError::new(format!(
                "{params} = {width}: a table of 2^{width} entries exceeds the maximum 2^{max}"
            ))),
            None => Ok(()),
        }
    }
}

impl fmt::Display for PredictorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PredictorConfig::AlwaysTaken => f.write_str("taken"),
            PredictorConfig::AlwaysNotTaken => f.write_str("not-taken"),
            PredictorConfig::Btfn => f.write_str("btfn"),
            PredictorConfig::LastTime { addr_bits } => write!(f, "last:a={addr_bits}"),
            PredictorConfig::AddressIndexed { addr_bits } => write!(f, "bimodal:a={addr_bits}"),
            PredictorConfig::Gas {
                history_bits,
                col_bits,
            } => write!(f, "gas:h={history_bits},c={col_bits}"),
            PredictorConfig::Gshare {
                history_bits,
                col_bits,
            } => write!(f, "gshare:h={history_bits},c={col_bits}"),
            PredictorConfig::Path {
                row_bits,
                col_bits,
                bits_per_target,
            } => write!(f, "path:r={row_bits},c={col_bits},q={bits_per_target}"),
            PredictorConfig::PasInfinite {
                history_bits,
                col_bits,
            } => write!(f, "pas:h={history_bits},c={col_bits}"),
            PredictorConfig::PasFinite {
                history_bits,
                col_bits,
                entries,
                ways,
            } => write!(f, "pas:h={history_bits},c={col_bits},e={entries},w={ways}"),
            PredictorConfig::Tournament {
                addr_bits,
                history_bits,
                chooser_bits,
            } => write!(
                f,
                "tournament:a={addr_bits},h={history_bits},k={chooser_bits}"
            ),
            PredictorConfig::Sas {
                history_bits,
                set_bits,
                col_bits,
            } => write!(f, "sas:h={history_bits},s={set_bits},c={col_bits}"),
            PredictorConfig::Agree {
                history_bits,
                index_bits,
            } => write!(f, "agree:h={history_bits},i={index_bits}"),
            PredictorConfig::BiMode {
                history_bits,
                direction_bits,
                choice_bits,
            } => write!(
                f,
                "bimode:h={history_bits},d={direction_bits},k={choice_bits}"
            ),
            PredictorConfig::Gskew {
                history_bits,
                bank_bits,
            } => write!(f, "gskew:h={history_bits},b={bank_bits}"),
            PredictorConfig::Yags {
                choice_bits,
                cache_bits,
                tag_bits,
            } => write!(f, "yags:k={choice_bits},b={cache_bits},t={tag_bits}"),
        }
    }
}

/// Error returned when parsing a [`PredictorConfig`] string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    message: String,
}

impl ParseConfigError {
    fn new(message: impl Into<String>) -> Self {
        ParseConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid predictor config: {}", self.message)
    }
}

impl std::error::Error for ParseConfigError {}

/// Key-value parameter list like `h=8,c=4`.
#[derive(Debug, Default)]
struct Params {
    pairs: Vec<(char, u32)>,
}

impl Params {
    fn parse(text: &str) -> Result<Self, ParseConfigError> {
        let mut pairs = Vec::new();
        if text.is_empty() {
            return Ok(Params { pairs });
        }
        for part in text.split(',') {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                ParseConfigError::new(format!("expected key=value, got {part:?}"))
            })?;
            let key = single_char(key).ok_or_else(|| {
                ParseConfigError::new(format!("parameter key {key:?} must be one letter"))
            })?;
            let value: u32 = value.parse().map_err(|_| {
                ParseConfigError::new(format!("parameter {key}={value:?} is not a number"))
            })?;
            pairs.push((key, value));
        }
        Ok(Params { pairs })
    }

    fn get(&self, key: char) -> Option<u32> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn require(&self, key: char, scheme: &str) -> Result<u32, ParseConfigError> {
        self.get(key)
            .ok_or_else(|| ParseConfigError::new(format!("{scheme} requires parameter {key}=<n>")))
    }
}

fn single_char(s: &str) -> Option<char> {
    let mut chars = s.chars();
    let c = chars.next()?;
    chars.next().is_none().then_some(c)
}

impl FromStr for PredictorConfig {
    type Err = ParseConfigError;

    /// Parses the compact syntax, accepting only configurations that
    /// [`build`](PredictorConfig::build) can construct: every table
    /// index width within [`TableGeometry::MAX_TOTAL_BITS`] and every
    /// family's structural limits met.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme, rest) = match s.split_once(':') {
            Some((scheme, rest)) => (scheme, rest),
            None => (s, ""),
        };
        let params = Params::parse(rest)?;
        let config = match scheme {
            "taken" => Ok(PredictorConfig::AlwaysTaken),
            "not-taken" => Ok(PredictorConfig::AlwaysNotTaken),
            "btfn" => Ok(PredictorConfig::Btfn),
            "last" => Ok(PredictorConfig::LastTime {
                addr_bits: params.require('a', scheme)?,
            }),
            "bimodal" => Ok(PredictorConfig::AddressIndexed {
                addr_bits: params.require('a', scheme)?,
            }),
            "gag" => Ok(PredictorConfig::Gas {
                history_bits: params.require('h', scheme)?,
                col_bits: 0,
            }),
            "gas" => Ok(PredictorConfig::Gas {
                history_bits: params.require('h', scheme)?,
                col_bits: params.get('c').unwrap_or(0),
            }),
            "gshare" => Ok(PredictorConfig::Gshare {
                history_bits: params.require('h', scheme)?,
                col_bits: params.get('c').unwrap_or(0),
            }),
            "path" => Ok(PredictorConfig::Path {
                row_bits: params.require('r', scheme)?,
                col_bits: params.get('c').unwrap_or(0),
                bits_per_target: params.get('q').unwrap_or(2),
            }),
            "pas" | "pag" => {
                let history_bits = params.require('h', scheme)?;
                let col_bits = if scheme == "pag" {
                    0
                } else {
                    params.get('c').unwrap_or(0)
                };
                match (params.get('e'), params.get('w')) {
                    (None, None) => Ok(PredictorConfig::PasInfinite {
                        history_bits,
                        col_bits,
                    }),
                    (Some(entries), ways) => Ok(PredictorConfig::PasFinite {
                        history_bits,
                        col_bits,
                        entries,
                        ways: ways.unwrap_or(4),
                    }),
                    (None, Some(_)) => Err(ParseConfigError::new(
                        "pas with w=<ways> also requires e=<entries>",
                    )),
                }
            }
            "tournament" => Ok(PredictorConfig::Tournament {
                addr_bits: params.require('a', scheme)?,
                history_bits: params.require('h', scheme)?,
                chooser_bits: params.require('k', scheme)?,
            }),
            "sas" | "sag" => Ok(PredictorConfig::Sas {
                history_bits: params.require('h', scheme)?,
                set_bits: params.require('s', scheme)?,
                col_bits: if scheme == "sag" {
                    0
                } else {
                    params.get('c').unwrap_or(0)
                },
            }),
            "agree" => {
                let history_bits = params.require('h', scheme)?;
                Ok(PredictorConfig::Agree {
                    history_bits,
                    index_bits: params.get('i').unwrap_or(history_bits),
                })
            }
            "bimode" => {
                let history_bits = params.require('h', scheme)?;
                Ok(PredictorConfig::BiMode {
                    history_bits,
                    direction_bits: params.get('d').unwrap_or(history_bits),
                    choice_bits: params.get('k').unwrap_or(history_bits),
                })
            }
            "gskew" => {
                let history_bits = params.require('h', scheme)?;
                Ok(PredictorConfig::Gskew {
                    history_bits,
                    bank_bits: params.get('b').unwrap_or(history_bits),
                })
            }
            "yags" => {
                let choice_bits = params.require('k', scheme)?;
                Ok(PredictorConfig::Yags {
                    choice_bits,
                    cache_bits: params.get('b').unwrap_or(choice_bits),
                    tag_bits: params.get('t').unwrap_or(6),
                })
            }
            other => Err(ParseConfigError::new(format!("unknown scheme {other:?}"))),
        }?;
        config.check_buildable()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        let configs = [
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AlwaysNotTaken,
            PredictorConfig::Btfn,
            PredictorConfig::LastTime { addr_bits: 9 },
            PredictorConfig::AddressIndexed { addr_bits: 12 },
            PredictorConfig::Gas {
                history_bits: 8,
                col_bits: 4,
            },
            PredictorConfig::Gshare {
                history_bits: 13,
                col_bits: 2,
            },
            PredictorConfig::Path {
                row_bits: 6,
                col_bits: 4,
                bits_per_target: 2,
            },
            PredictorConfig::PasInfinite {
                history_bits: 12,
                col_bits: 0,
            },
            PredictorConfig::PasFinite {
                history_bits: 10,
                col_bits: 0,
                entries: 1024,
                ways: 4,
            },
            PredictorConfig::Tournament {
                addr_bits: 10,
                history_bits: 10,
                chooser_bits: 10,
            },
            PredictorConfig::Sas {
                history_bits: 8,
                set_bits: 4,
                col_bits: 2,
            },
            PredictorConfig::Agree {
                history_bits: 8,
                index_bits: 10,
            },
            PredictorConfig::BiMode {
                history_bits: 9,
                direction_bits: 10,
                choice_bits: 11,
            },
            PredictorConfig::Gskew {
                history_bits: 7,
                bank_bits: 9,
            },
            PredictorConfig::Yags {
                choice_bits: 10,
                cache_bits: 9,
                tag_bits: 6,
            },
        ];
        for cfg in configs {
            let text = cfg.to_string();
            let parsed: PredictorConfig = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, cfg, "{text}");
        }
    }

    #[test]
    fn built_predictors_report_matching_structure() {
        let cfg = PredictorConfig::Gas {
            history_bits: 8,
            col_bits: 4,
        };
        assert_eq!(cfg.build().name(), "GAs(2^8 x 2^4)");
        assert_eq!(cfg.counters(), 4096);
        let cfg: PredictorConfig = "pas:h=10,c=0,e=1024,w=4".parse().unwrap();
        assert_eq!(cfg.build().name(), "PAg[1024x4](2^10)");
    }

    #[test]
    fn gag_parses_as_zero_column_gas() {
        let cfg: PredictorConfig = "gag:h=10".parse().unwrap();
        assert_eq!(
            cfg,
            PredictorConfig::Gas {
                history_bits: 10,
                col_bits: 0
            }
        );
    }

    #[test]
    fn pas_without_entries_is_infinite() {
        let cfg: PredictorConfig = "pas:h=8,c=2".parse().unwrap();
        assert!(matches!(cfg, PredictorConfig::PasInfinite { .. }));
    }

    #[test]
    fn pag_forces_single_column() {
        let cfg: PredictorConfig = "pag:h=8".parse().unwrap();
        assert_eq!(
            cfg,
            PredictorConfig::PasInfinite {
                history_bits: 8,
                col_bits: 0
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let cfg: PredictorConfig = "path:r=6".parse().unwrap();
        assert_eq!(
            cfg,
            PredictorConfig::Path {
                row_bits: 6,
                col_bits: 0,
                bits_per_target: 2
            }
        );
        let cfg: PredictorConfig = "pas:h=8,e=512".parse().unwrap();
        assert_eq!(
            cfg,
            PredictorConfig::PasFinite {
                history_bits: 8,
                col_bits: 0,
                entries: 512,
                ways: 4
            }
        );
    }

    #[test]
    fn parse_errors_are_informative() {
        let err = "warp-drive:x=1".parse::<PredictorConfig>().unwrap_err();
        assert!(err.to_string().contains("unknown scheme"));
        let err = "gas:c=4".parse::<PredictorConfig>().unwrap_err();
        assert!(err.to_string().contains("requires parameter h"));
        let err = "gas:h=abc".parse::<PredictorConfig>().unwrap_err();
        assert!(err.to_string().contains("not a number"));
        let err = "gas:h".parse::<PredictorConfig>().unwrap_err();
        assert!(err.to_string().contains("key=value"));
        let err = "pas:h=8,w=4".parse::<PredictorConfig>().unwrap_err();
        assert!(err.to_string().contains("requires e="));
    }

    #[test]
    fn tables_wider_than_the_geometry_cap_are_rejected() {
        for text in [
            "gshare:h=40",
            "gas:h=20,c=11",
            "gshare:h=4294967295,c=1",
            "last:a=31",
            "bimodal:a=31",
            "path:r=28,c=3",
            "pas:h=31",
            "pas:h=8,e=2147483648,w=4",
            "sas:h=25,s=2,c=6",
            "tournament:a=8,h=31,k=8",
            "agree:h=8,i=31",
            "bimode:h=8,k=31",
            "yags:k=31,b=8",
        ] {
            let err = text.parse::<PredictorConfig>().unwrap_err();
            assert!(
                err.to_string().contains("exceeds the maximum 2^30"),
                "{text}: {err}"
            );
        }
        let err = "gshare:h=40".parse::<PredictorConfig>().unwrap_err();
        assert!(err.to_string().contains("h+c = 40"), "{err}");
        // The cap itself is accepted, and its counter count is exact.
        let cfg: PredictorConfig = "gas:h=20,c=10".parse().unwrap();
        assert_eq!(cfg.counters(), 1 << 30);
        let cfg: PredictorConfig = "tournament:a=30,h=30,k=30".parse().unwrap();
        assert_eq!(cfg.counters(), 3 << 30);
    }

    #[test]
    fn family_limits_are_rejected_before_construction() {
        for text in [
            "path:r=6,q=0",
            "path:r=6,q=17",
            "pas:h=8,e=0",
            "pas:h=8,e=1000",
            "pas:h=8,e=512,w=3",
            "pas:h=8,e=4,w=8",
            "sas:h=4,s=21",
            "agree:h=12,i=10",
            "bimode:h=12,d=10",
            "gskew:h=8,b=25",
            "gskew:h=65,b=8",
            "yags:k=8,t=0",
            "yags:k=8,t=9",
        ] {
            let err = text.parse::<PredictorConfig>().unwrap_err();
            assert!(err.to_string().contains("needs"), "{text}: {err}");
        }
        for text in [
            "path:r=6,q=16",
            "pas:h=8,e=512,w=512",
            "sas:h=4,s=20",
            "agree:h=10,i=10",
            "bimode:h=10,d=10,k=4",
            "gskew:h=40,b=24",
            "yags:k=8,t=8",
        ] {
            let cfg: PredictorConfig = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(cfg.config_id().parse::<PredictorConfig>().unwrap(), cfg);
        }
    }

    #[test]
    fn dealiased_defaults_apply() {
        let cfg: PredictorConfig = "agree:h=10".parse().unwrap();
        assert_eq!(
            cfg,
            PredictorConfig::Agree {
                history_bits: 10,
                index_bits: 10
            }
        );
        let cfg: PredictorConfig = "gskew:h=8,b=11".parse().unwrap();
        assert_eq!(cfg.counters(), 3 * 2048);
        let cfg: PredictorConfig = "sag:h=6,s=3".parse().unwrap();
        assert!(matches!(cfg, PredictorConfig::Sas { col_bits: 0, .. }));
        assert_eq!(cfg.build().name(), "SAg[2^3 sets](2^6)");
    }

    #[test]
    fn config_ids_are_injective_and_round_trip() {
        // A broad grid of configurations: every id must be unique and
        // parse back to the configuration that produced it.
        let mut configs: Vec<PredictorConfig> = vec![
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AlwaysNotTaken,
            PredictorConfig::Btfn,
        ];
        for n in 0..6u32 {
            configs.push(PredictorConfig::LastTime { addr_bits: n });
            configs.push(PredictorConfig::AddressIndexed { addr_bits: n });
            for c in 0..4u32 {
                configs.push(PredictorConfig::Gas {
                    history_bits: n,
                    col_bits: c,
                });
                configs.push(PredictorConfig::Gshare {
                    history_bits: n,
                    col_bits: c,
                });
                configs.push(PredictorConfig::PasInfinite {
                    history_bits: n,
                    col_bits: c,
                });
                configs.push(PredictorConfig::Sas {
                    history_bits: n,
                    set_bits: 2,
                    col_bits: c,
                });
            }
            configs.push(PredictorConfig::PasFinite {
                history_bits: n,
                col_bits: 1,
                entries: 256,
                ways: 2,
            });
            configs.push(PredictorConfig::Yags {
                choice_bits: n + 1,
                cache_bits: n,
                tag_bits: 4,
            });
        }
        let mut seen = std::collections::HashSet::new();
        for cfg in configs {
            let id = cfg.config_id();
            assert!(seen.insert(id.clone()), "duplicate config id {id}");
            let parsed: PredictorConfig = id.parse().unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(parsed, cfg, "{id}");
        }
    }

    #[test]
    fn counters_for_static_schemes_is_zero() {
        assert_eq!(PredictorConfig::Btfn.counters(), 0);
        assert_eq!(PredictorConfig::AlwaysTaken.counters(), 0);
    }

    #[test]
    fn tournament_counters_sum_components() {
        let cfg = PredictorConfig::Tournament {
            addr_bits: 3,
            history_bits: 4,
            chooser_bits: 5,
        };
        assert_eq!(cfg.counters(), 8 + 16 + 32);
    }
}
