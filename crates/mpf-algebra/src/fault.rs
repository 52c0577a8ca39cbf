//! Deterministic failpoints for exercising error and fallback paths.
//!
//! Production binaries compile the checks away: without the
//! `fault-injection` cargo feature, [`check`] is an inlined `Ok(())` and
//! the registry functions do not exist. With the feature (used by the
//! dedicated CI job and the `tests/fault_injection.rs` suites), tests can
//! arm a named site to fail at its Nth invocation:
//!
//! ```ignore
//! fault::inject("product_join", 2);      // second call errors, then disarms
//! fault::inject_always("optimize::ve+"); // every call errors until cleared
//! ```
//!
//! Sites are global to the process, so tests that arm overlapping sites
//! must serialize themselves (the suites use a shared mutex). Every
//! operator entry point and the engine's optimizer call are instrumented.
//! The hash operators' sites are their function names (`"product_join"`,
//! `"group_by"`, `"join_group_by"`, ...); each kernel of
//! [`crate::ops::step`]'s chain probes a site named by its module and
//! the step's shape (`"dense::join"`, `"dense::agg"`, `"dense::join_agg"`,
//! and the same under `"sparse::"`), plus `"dense::convert"` and
//! `"sparse::convert"` where an operand is borrowed or keyed; the engine
//! adds `"optimize::<label>"` per strategy. One site fails differently:
//! `"op_guard::cancel"`, polled by every [`crate::OpGuard`] tick, cancels
//! the execution's [`crate::CancelToken`] (when it has one) so the tick
//! trips with [`crate::AlgebraError::Cancelled`] inside the operator.

#[cfg(not(feature = "fault-injection"))]
use crate::Result;

#[cfg(feature = "fault-injection")]
mod registry {
    use std::collections::HashMap;
    use std::sync::Mutex;

    use crate::{AlgebraError, Result};

    #[derive(Debug, Clone, Copy)]
    enum Arm {
        /// Fail at the `nth` invocation (1-based), then disarm.
        Nth { nth: u64, seen: u64 },
        /// Fail on every invocation until cleared.
        Always,
    }

    static REGISTRY: Mutex<Option<HashMap<String, Arm>>> = Mutex::new(None);

    fn with_registry<T>(f: impl FnOnce(&mut HashMap<String, Arm>) -> T) -> T {
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        f(guard.get_or_insert_with(HashMap::new))
    }

    /// Arm `site` to fail at its `nth` invocation from now (1-based),
    /// then disarm itself.
    pub fn inject(site: &str, nth: u64) {
        assert!(nth >= 1, "nth is 1-based");
        with_registry(|r| r.insert(site.to_string(), Arm::Nth { nth, seen: 0 }));
    }

    /// Arm `site` to fail on every invocation until [`clear`]ed.
    pub fn inject_always(site: &str) {
        with_registry(|r| r.insert(site.to_string(), Arm::Always));
    }

    /// Disarm `site`.
    pub fn clear(site: &str) {
        with_registry(|r| {
            r.remove(site);
        });
    }

    /// Disarm every site.
    pub fn clear_all() {
        with_registry(|r| r.clear());
    }

    /// Called by instrumented code at each site.
    pub fn check(site: &str) -> Result<()> {
        let fire = with_registry(|r| {
            let (fire, disarm) = match r.get_mut(site) {
                None => (false, false),
                Some(Arm::Always) => (true, false),
                Some(Arm::Nth { nth, seen }) => {
                    *seen += 1;
                    (*seen >= *nth, *seen >= *nth)
                }
            };
            if disarm {
                r.remove(site);
            }
            fire
        });
        if fire {
            Err(AlgebraError::FaultInjected(site.to_string()))
        } else {
            Ok(())
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use registry::{check, clear, clear_all, inject, inject_always};

/// No-op without the `fault-injection` feature; the optimizer inlines and
/// removes it.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn check(_site: &str) -> Result<()> {
    Ok(())
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use crate::AlgebraError;

    #[test]
    fn nth_arm_fires_once_then_disarms() {
        inject("site-a", 3);
        assert!(check("site-a").is_ok());
        assert!(check("site-a").is_ok());
        assert_eq!(
            check("site-a").unwrap_err(),
            AlgebraError::FaultInjected("site-a".into())
        );
        assert!(check("site-a").is_ok(), "disarmed after firing");
    }

    #[test]
    fn always_arm_fires_until_cleared() {
        inject_always("site-b");
        assert!(check("site-b").is_err());
        assert!(check("site-b").is_err());
        clear("site-b");
        assert!(check("site-b").is_ok());
    }

    #[test]
    fn unarmed_sites_pass() {
        assert!(check("site-c").is_ok());
    }
}
