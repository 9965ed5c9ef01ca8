//! The fail counter behind `fail_ratio`: every checked operation is
//! attempted once and fails on a mismatch or an error return.

use std::fmt::Display;

/// Counts checked operations and their failures, and keeps the
/// fingerprints the checks compared.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that mismatched or returned an error.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// `(label, fingerprint)` of every reference result.
    pub fingerprints: Vec<(String, u64)>,
}

impl Checker {
    /// Counts one operation that succeeded iff `ok`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("mismatch: {what}"));
        }
    }

    /// Counts one operation that must equal `expected`.
    pub fn same(&mut self, what: &str, expected: u64, got: u64) {
        self.check(
            &format!("{what}: expected {expected:#018x}, got {got:#018x}"),
            expected == got,
        );
    }

    /// Unwraps an operation's result, counting an error as a failed
    /// operation (the success is counted by the check that follows).
    pub fn ok<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(format!("error: {what}: {e}"));
                None
            }
        }
    }

    /// Records a reference fingerprint for printing.
    pub fn note(&mut self, label: impl Into<String>, fingerprint: u64) {
        self.fingerprints.push((label.into(), fingerprint));
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_mismatches_and_errors() {
        let mut c = Checker::default();
        c.same("equal", 1, 1);
        c.same("differ", 1, 2);
        assert_eq!(c.ok::<u8, _>("boom", Err("stalled")), None);
        assert_eq!(c.ok::<u8, &str>("fine", Ok(3)), Some(3));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!((c.fail_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
