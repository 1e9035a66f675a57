//! Plain-text design configuration (the paper's YAML role, dependency-free).
//!
//! A tiny `key = value` format with `#` comments:
//!
//! ```text
//! curve = BN254N
//! long = 38
//! short = 8
//! linear_units = 1
//! fifo = false
//! variants = manual      # all_karatsuba | all_schoolbook | manual
//! cores = 8
//! ```

use finesse_hw::HwModel;
use std::collections::HashMap;
use std::fmt;

/// The accepted `variants` preset names.
const VARIANT_PRESETS: [&str; 3] = ["all_karatsuba", "all_schoolbook", "manual"];

/// A parsed flow configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowConfig {
    /// Curve name (Table 2; [`FlowConfig::parse`] rejects others).
    pub curve: String,
    /// Long (mmul) latency.
    pub long: u32,
    /// Short (linear) latency.
    pub short: u32,
    /// Linear unit count (1 = single issue).
    pub linear_units: u8,
    /// Write-back FIFO.
    pub fifo: bool,
    /// Variant preset name: `all_karatsuba`, `all_schoolbook` or
    /// `manual`.
    pub variants: String,
    /// Parallel core count.
    pub cores: u32,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            curve: "BN254N".into(),
            long: 38,
            short: 8,
            linear_units: 1,
            fifo: false,
            variants: "all_karatsuba".into(),
            cores: 1,
        }
    }
}

/// Error parsing a [`FlowConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseConfigError {
    /// A line had no `=` separator.
    BadLine(usize),
    /// A value failed to parse for its key.
    BadValue(String),
    /// An unknown key.
    UnknownKey(String),
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseConfigError::BadLine(n) => write!(f, "line {n}: expected `key = value`"),
            ParseConfigError::BadValue(k) => write!(f, "invalid value for key `{k}`"),
            ParseConfigError::UnknownKey(k) => write!(f, "unknown key `{k}`"),
        }
    }
}

impl std::error::Error for ParseConfigError {}

impl FlowConfig {
    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseConfigError`] on malformed lines, unknown keys,
    /// unparseable values, a curve not in Table 2 or an unknown variant
    /// preset.
    pub fn parse(text: &str) -> Result<FlowConfig, ParseConfigError> {
        let mut kv = HashMap::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or(ParseConfigError::BadLine(n + 1))?;
            kv.insert(k.trim().to_lowercase(), v.trim().to_owned());
        }
        let mut cfg = FlowConfig::default();
        for (k, v) in kv {
            match k.as_str() {
                "curve" => {
                    if finesse_curves::spec_by_name(&v).is_none() {
                        return Err(ParseConfigError::BadValue(k));
                    }
                    cfg.curve = v
                }
                "long" => cfg.long = v.parse().map_err(|_| ParseConfigError::BadValue(k))?,
                "short" => cfg.short = v.parse().map_err(|_| ParseConfigError::BadValue(k))?,
                "linear_units" => {
                    cfg.linear_units = v.parse().map_err(|_| ParseConfigError::BadValue(k))?
                }
                "fifo" => cfg.fifo = v.parse().map_err(|_| ParseConfigError::BadValue(k))?,
                "variants" => {
                    if !VARIANT_PRESETS.contains(&v.as_str()) {
                        return Err(ParseConfigError::BadValue(k));
                    }
                    cfg.variants = v
                }
                "cores" => cfg.cores = v.parse().map_err(|_| ParseConfigError::BadValue(k))?,
                _ => return Err(ParseConfigError::UnknownKey(k)),
            }
        }
        Ok(cfg)
    }

    /// Builds the hardware model this config describes.
    pub fn hw_model(&self) -> HwModel {
        let mut hw = if self.linear_units <= 1 {
            HwModel::single_issue(self.long, self.short)
        } else {
            HwModel::vliw(self.linear_units, self.long, self.short)
        };
        if self.fifo && !hw.wb_fifo {
            hw = hw.with_fifo();
        }
        hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = "
            curve = BLS24-509   # big curve
            long = 26
            short = 2
            linear_units = 4
            fifo = true
            variants = manual
            cores = 8
        ";
        let cfg = FlowConfig::parse(text).unwrap();
        assert_eq!(cfg.curve, "BLS24-509");
        assert_eq!(cfg.long, 26);
        assert_eq!(cfg.cores, 8);
        let hw = cfg.hw_model();
        assert_eq!(hw.issue_width, 5);
        assert!(hw.wb_fifo);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(matches!(
            FlowConfig::parse("frobnicate = 7"),
            Err(ParseConfigError::UnknownKey(_))
        ));
        assert!(matches!(
            FlowConfig::parse("long = many"),
            Err(ParseConfigError::BadValue(_))
        ));
        assert!(matches!(
            FlowConfig::parse("curve = BN255"),
            Err(ParseConfigError::BadValue(_))
        ));
        assert!(matches!(
            FlowConfig::parse("variants = all_karatsbua"),
            Err(ParseConfigError::BadValue(_))
        ));
        assert!(matches!(
            FlowConfig::parse("garbage"),
            Err(ParseConfigError::BadLine(1))
        ));
    }

    #[test]
    fn defaults_apply() {
        let cfg = FlowConfig::parse("").unwrap();
        assert_eq!(cfg, FlowConfig::default());
    }
}
