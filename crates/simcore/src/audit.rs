//! Global switch for runtime invariant auditing.
//!
//! The flag lives here, at the bottom of the crate graph, so the
//! engine and every layer above it (links, executors, the `simaudit`
//! crate) can consult one switch without a dependency cycle. Auditing
//! is on by default in debug builds and off in release builds unless
//! forced (the CLI's `--audit` flag).

use std::sync::atomic::{AtomicBool, Ordering};

static FORCED: AtomicBool = AtomicBool::new(false);

/// Whether invariant auditing is active: always in debug builds,
/// in release builds only after [`force_enable`].
pub fn enabled() -> bool {
    cfg!(debug_assertions) || FORCED.load(Ordering::Relaxed)
}

/// Turns auditing on for the rest of the process regardless of build
/// profile (the CLI's `--audit` flag).
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
}

/// Whether auditing was explicitly forced on (as opposed to being a
/// debug-build default).
pub fn is_forced() -> bool {
    FORCED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Release test runs audit only once `force_enable` has run, which
    // depends on test order, so this holds only in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_audit_by_default() {
        // The test suite runs under debug_assertions.
        assert!(enabled());
    }

    #[test]
    fn forcing_is_sticky_and_observable() {
        force_enable();
        assert!(is_forced());
        assert!(enabled());
    }
}
