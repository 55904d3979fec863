//! NaN/∞ taint guards at the decode pipeline's stage boundaries.
//!
//! The decode pipeline is numerically closed: every stage consumes and
//! produces finite floats, and a NaN anywhere is a bug (the only sanctioned
//! entry point for non-finite data is the decoder's input sanitizer, which
//! zeroes dropout samples before any stage runs). In builds with debug
//! assertions on — every `cargo test` run — these guards verify that
//! invariant at every stage boundary and panic with a message naming the
//! offending stage; in release builds every guard compiles to nothing, so
//! call sites carry no `cfg` clutter and the decode pays nothing.
//!
//! The panic here is deliberate and exempt from the workspace
//! `clippy::panic` gate: the guards are a debugging instrument whose
//! entire purpose is to abort loudly at the first tainted value instead of
//! letting it propagate into a silently-corrupt decode.

use lf_types::Complex;

/// Panics if any sample in `values` is NaN/∞, naming `stage`.
///
/// No-op unless debug assertions are on.
#[inline]
pub fn assert_finite_complex(stage: &str, values: &[Complex]) {
    if cfg!(debug_assertions) {
        if let Some(idx) = values.iter().position(|v| !v.is_finite()) {
            taint_panic(stage, idx, format!("{:?}", values[idx]));
        }
    }
}

/// Panics if any value in `values` is NaN/∞, naming `stage`.
///
/// No-op unless debug assertions are on.
#[inline]
pub fn assert_finite_f64(stage: &str, values: &[f64]) {
    if cfg!(debug_assertions) {
        if let Some(idx) = values.iter().position(|v| !v.is_finite()) {
            taint_panic(stage, idx, format!("{}", values[idx]));
        }
    }
}

/// Panics if the single `value` is NaN/∞, naming `stage`.
///
/// No-op unless debug assertions are on.
#[inline]
pub fn assert_finite_scalar(stage: &str, value: f64) {
    if cfg!(debug_assertions) && !value.is_finite() {
        taint_panic(stage, 0, format!("{value}"));
    }
}

// Aborting on taint is this module's contract (see module docs); the
// clippy::panic gate guards the decode path, not its debug instrument.
#[allow(clippy::panic)]
fn taint_panic(stage: &str, idx: usize, value: String) -> ! {
    panic!("non-finite value {value} at pipeline stage `{stage}` (element {idx})");
}

// The guards only fire with debug assertions on, as in every test build.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "stage `edges`")]
    fn complex_guard_names_stage() {
        assert_finite_complex(
            "edges",
            &[Complex::new(1.0, 0.0), Complex::new(f64::NAN, 0.0)],
        );
    }

    #[test]
    #[should_panic(expected = "stage `folding`")]
    fn f64_guard_names_stage() {
        assert_finite_f64("folding", &[0.5, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "stage `separation`")]
    fn scalar_guard_names_stage() {
        assert_finite_scalar("separation", f64::NAN);
    }

    #[test]
    fn finite_data_passes() {
        assert_finite_complex("slots", &[Complex::new(1.0, -2.0)]);
        assert_finite_f64("slots", &[0.0, 1.0e308]);
        assert_finite_scalar("slots", -0.0);
    }
}
