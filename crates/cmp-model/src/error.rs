//! Error type for configuration-model failures.

use crate::config::MAX_CORES;
use std::fmt;

/// Errors produced while deriving or validating a CMP configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The requested core count is outside the range studied in the paper (1..=32)
    /// or otherwise impossible to place on the die, or a configuration has no
    /// cores or more than [`MAX_CORES`].
    UnsupportedCoreCount {
        /// The core count that was requested.
        requested: usize,
    },
    /// The cores plus fixed overheads exceed the die budget, leaving no area for L2.
    DieBudgetExceeded {
        /// Core count that was being placed.
        cores: usize,
        /// Area (mm²) required before any L2 is allocated.
        required_mm2: f64,
        /// Total usable die area (mm²).
        budget_mm2: f64,
    },
    /// A cache geometry parameter is invalid (zero size, non-power-of-two line, ...).
    InvalidCacheGeometry {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A sweep was asked to produce a configuration with an invalid parameter.
    InvalidSweepParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnsupportedCoreCount { requested } => {
                write!(
                    f,
                    "unsupported core count {requested} (the study covers 1..=32; \
                     a configuration may have 1..={MAX_CORES})"
                )
            }
            ModelError::DieBudgetExceeded {
                cores,
                required_mm2,
                budget_mm2,
            } => write!(
                f,
                "{cores} cores need {required_mm2:.1} mm² before L2, exceeding the {budget_mm2:.1} mm² budget"
            ),
            ModelError::InvalidCacheGeometry { reason } => {
                write!(f, "invalid cache geometry: {reason}")
            }
            ModelError::InvalidSweepParameter { reason } => {
                write!(f, "invalid sweep parameter: {reason}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_core_count() {
        let e = ModelError::UnsupportedCoreCount { requested: 77 };
        assert!(e.to_string().contains("77"));
    }

    #[test]
    fn display_mentions_budget() {
        let e = ModelError::DieBudgetExceeded {
            cores: 64,
            required_mm2: 500.0,
            budget_mm2: 240.0,
        };
        let s = e.to_string();
        assert!(s.contains("64"));
        assert!(s.contains("240.0"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&ModelError::InvalidCacheGeometry {
            reason: "zero capacity".into(),
        });
    }
}
