//! Deterministic fault injection for tests (`--features failpoints`).
//!
//! A *failpoint* is a named site in production code where a test can inject a
//! fault — a panic, an artificial delay, or a site-interpreted trigger (e.g.
//! "pretend the queue is full"). Sites are planted with the
//! [`failpoint!`](crate::failpoint) macro, which compiles to **nothing** unless
//! the `failpoints` cargo feature is enabled, so release binaries and the
//! gated micro-benches pay zero overhead.
//!
//! With the feature on, a site still does nothing until a test *arms* it via
//! [`arm`], which returns an RAII [`FailGuard`] that disarms the site on drop.
//! Arming is keyed by site name in a process-global registry; tests that arm
//! the same site must serialize themselves (the chaos suite uses distinct
//! sites per scenario or a shared mutex).
//!
//! Triggers are deterministic by construction: [`Trigger::NthHit`] fires on
//! exactly one hit, [`Trigger::EveryK`] on a fixed cadence, and
//! [`Trigger::Probability`] flips a splitmix64-seeded coin per hit — the same
//! seed always yields the same fault schedule, so a failing chaos case can be
//! replayed bit-for-bit.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when its trigger fires.
#[derive(Clone, Debug)]
pub enum FailAction {
    /// Panic with the given message (exercises unwind/poison paths).
    Panic(&'static str),
    /// Sleep for the given duration (exercises contention/timeout paths).
    Sleep(Duration),
    /// Report `true` from the site; the site interprets it (e.g. a queue
    /// pretends to be full, a budget pretends to be exhausted).
    Trigger,
    /// Run a hook on the hitting thread, then carry on (exercises an
    /// operation interleaved at exactly this point, with no sleep and no
    /// second thread). The hook runs outside the registry lock, so it may
    /// hit failpoints itself.
    Run(Hook),
}

/// The closure a [`FailAction::Run`] calls.
#[derive(Clone)]
pub struct Hook(pub Arc<dyn Fn() + Send + Sync>);

impl fmt::Debug for Hook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Hook")
    }
}

/// When an armed failpoint fires.
#[derive(Clone, Debug)]
pub enum Trigger {
    /// Fire on exactly the `n`-th hit (1-based), once.
    NthHit(u64),
    /// Fire on every `k`-th hit (`k` = 1 means every hit).
    EveryK(u64),
    /// Fire each hit independently with probability `p`, decided by a
    /// splitmix64 stream seeded from `seed` and the hit index —
    /// deterministic for a given seed.
    Probability {
        /// Stream seed; the same seed replays the same schedule.
        seed: u64,
        /// Per-hit firing probability in `[0, 1]`.
        p: f64,
    },
    /// Fire on every hit.
    Always,
}

struct Armed {
    trigger: Trigger,
    action: FailAction,
    hits: AtomicU64,
}

impl Armed {
    /// Count a hit and decide whether the trigger fires on it.
    fn fires(&self) -> bool {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        match self.trigger {
            Trigger::NthHit(n) => hit == n,
            Trigger::EveryK(k) => k > 0 && hit % k == 0,
            Trigger::Probability { seed, p } => {
                let draw = crate::seed::derive(seed, hit);
                // Map the top 53 bits onto [0, 1) exactly like a double draw.
                let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
                unit < p
            }
            Trigger::Always => true,
        }
    }
}

fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// RAII handle returned by [`arm`]; dropping it disarms the site.
#[must_use = "dropping the guard disarms the failpoint"]
pub struct FailGuard {
    site: &'static str,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        // A poisoned registry just means some armed site panicked by design;
        // recover the map and disarm anyway.
        let mut map = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.remove(self.site);
    }
}

/// Arm `site` so that subsequent hits evaluate `trigger` and, when it fires,
/// perform `action`. Re-arming an already-armed site replaces its schedule
/// (and resets the hit counter).
pub fn arm(site: &'static str, trigger: Trigger, action: FailAction) -> FailGuard {
    let mut map = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    map.insert(site, Armed { trigger, action, hits: AtomicU64::new(0) });
    FailGuard { site }
}

/// Evaluate a hit on `site`. Called by the [`failpoint!`](crate::failpoint)
/// macro; not meant to be called directly.
///
/// Returns `true` iff the site is armed with [`FailAction::Trigger`] and the
/// trigger fired on this hit. [`FailAction::Panic`] panics from here;
/// [`FailAction::Sleep`] blocks and [`FailAction::Run`] calls its hook, and
/// both then return `false`.
pub fn hit(site: &'static str) -> bool {
    let action = {
        let map = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get(site) {
            Some(armed) if armed.fires() => armed.action.clone(),
            _ => return false,
        }
    };
    match action {
        FailAction::Panic(msg) => panic!("failpoint {site}: {msg}"),
        FailAction::Sleep(d) => {
            std::thread::sleep(d);
            false
        }
        FailAction::Trigger => true,
        FailAction::Run(hook) => {
            (hook.0)();
            false
        }
    }
}

/// Number of hits recorded on `site` since it was (re-)armed; 0 if unarmed.
/// Lets tests assert a planted site was actually reached.
pub fn hits(site: &'static str) -> u64 {
    let map = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    map.get(site).map_or(0, |armed| armed.hits.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_hit_fires_once() {
        let _g = arm("fp-test-nth", Trigger::NthHit(3), FailAction::Trigger);
        let fired: Vec<bool> = (0..5).map(|_| hit("fp-test-nth")).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(hits("fp-test-nth"), 5);
    }

    #[test]
    fn every_k_fires_on_cadence() {
        let _g = arm("fp-test-everyk", Trigger::EveryK(2), FailAction::Trigger);
        let fired: Vec<bool> = (0..6).map(|_| hit("fp-test-everyk")).collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn probability_is_deterministic() {
        let schedule = |seed| -> Vec<bool> {
            let _g =
                arm("fp-test-prob", Trigger::Probability { seed, p: 0.5 }, FailAction::Trigger);
            (0..64).map(|_| hit("fp-test-prob")).collect()
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "p=0.5 over 64 hits should fire");
        assert!(a.iter().any(|&f| !f), "p=0.5 over 64 hits should also skip");
    }

    #[test]
    fn unarmed_site_is_inert_and_guard_disarms() {
        assert!(!hit("fp-test-unarmed"));
        {
            let _g = arm("fp-test-guard", Trigger::Always, FailAction::Trigger);
            assert!(hit("fp-test-guard"));
        }
        assert!(!hit("fp-test-guard"), "guard drop must disarm");
    }

    #[test]
    fn run_action_calls_its_hook_and_may_hit_sites_itself() {
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let hook = Hook(Arc::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            assert!(!hit("fp-test-run"), "NthHit(2) fires once");
        }));
        let _g = arm("fp-test-run", Trigger::NthHit(2), FailAction::Run(hook));
        let fired: Vec<bool> = (0..3).map(|_| hit("fp-test-run")).collect();
        assert_eq!(fired, vec![false, false, false], "a hook reports nothing to the site");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(hits("fp-test-run"), 4, "the hook's own hit counts too");
    }

    #[test]
    fn panic_action_panics_and_registry_survives() {
        let _g = arm("fp-test-panic", Trigger::NthHit(1), FailAction::Panic("boom"));
        let err = std::panic::catch_unwind(|| hit("fp-test-panic"));
        assert!(err.is_err());
        // Registry still usable after the unwind.
        assert!(!hit("fp-test-panic"), "NthHit(1) already spent");
    }
}
