//! Time-unit helpers.
//!
//! The model equations are unit-agnostic: every function works as long as all
//! durations share one unit. The configuration structs in this crate document
//! their fields in **hours**; these helpers convert common units to hours so
//! call sites stay readable:
//!
//! ```
//! use redcr_model::units;
//!
//! assert_eq!(units::hours_from_secs(3600.0), 1.0);
//! assert_eq!(units::hours_from_years(1.0), 8760.0);
//! ```

/// Hours per year used throughout the paper-style configurations (365 days).
pub const HOURS_PER_YEAR: f64 = 365.0 * 24.0;

/// Converts seconds to hours.
#[inline]
pub fn hours_from_secs(secs: f64) -> f64 {
    secs / 3600.0
}

/// Converts minutes to hours.
#[inline]
pub fn hours_from_mins(mins: f64) -> f64 {
    mins / 60.0
}

/// Converts years (365 days) to hours.
#[inline]
pub fn hours_from_years(years: f64) -> f64 {
    years * HOURS_PER_YEAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        assert!((hours_from_secs(1234.5 * 3600.0) - 1234.5).abs() < 1e-9);
        assert!((hours_from_mins(77.0 * 60.0) - 77.0).abs() < 1e-9);
    }

    #[test]
    fn paper_constants() {
        // 5-year MTBF used in Tables 2-3.
        assert_eq!(hours_from_years(5.0), 43_800.0);
        // 120 s checkpoint cost from Section 6.
        assert!((hours_from_secs(120.0) - 1.0 / 30.0).abs() < 1e-12);
    }
}
