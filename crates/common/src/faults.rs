//! Deterministic fault injection.
//!
//! A process-global, seeded failpoint registry in the style of `fail-rs`:
//! production code names its failure boundaries
//! (`faults::check_storage("checkpoint.write")`,
//! `faults::maybe_corrupt("wire.encode", &mut buf)`), and tests install a
//! [`FaultPlan`] describing *which* sites misbehave, *when* (on the Nth hit,
//! with seeded probability per hit, or permanently from the Nth hit on) and
//! *how* ([`FaultKind::Error`], [`FaultKind::CorruptBit`],
//! [`FaultKind::Stall`]).
//!
//! ## Determinism contract
//!
//! Every injection decision is a pure function of `(plan seed, site name,
//! per-site hit index)` — no wall clock, no OS entropy, no global RNG
//! stream. Two runs that hit each site in the same order fire the same
//! faults at the same hits and, for corruption, flip the same bits. This is
//! what lets the chaos suite assert *same seed ⇒ same schedule ⇒ same final
//! bit-state*.
//!
//! ## Zero cost when disabled
//!
//! With no plan installed, [`hit`] is a single relaxed atomic load and a
//! branch. Production builds never pay for the registry unless a test (or
//! an operator running a chaos drill) installs a plan.
//!
//! ## Process-global, test-serialized
//!
//! The registry is global to the process, so tests that install plans must
//! not run concurrently with each other; the chaos suite lives in its own
//! integration-test binary and serializes its cases behind a mutex.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::error::{JanusError, Result};

/// What a firing failpoint does to the site that hit it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The operation fails with a typed error (or `io::Error` at I/O
    /// boundaries) instead of completing.
    Error,
    /// One deterministically-chosen bit of the site's byte buffer is
    /// flipped (sites without a buffer treat this as [`FaultKind::Error`]).
    CorruptBit,
    /// The site sleeps for this many milliseconds, then proceeds normally
    /// — models a stalled thread / slow disk / congested link.
    Stall(u64),
}

/// When a failpoint fires, counted in per-site hits (1-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerMode {
    /// Fires exactly once, on the `n`th hit of the site.
    Nth(u64),
    /// Fires on each hit independently with probability `p`, decided by a
    /// seeded hash of the hit index — deterministic per `(seed, site, n)`.
    Probability(f64),
    /// Fires on every hit from the `after`th on (a permanently broken
    /// disk / link / peer).
    Permanent {
        /// First 1-based hit index that fires.
        after: u64,
    },
}

/// One failpoint rule: a named site, a trigger, and a fault kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The site name production code passes to [`hit`] (exact match).
    pub site: String,
    /// When the rule fires.
    pub mode: TriggerMode,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl FaultRule {
    /// Convenience constructor.
    pub fn new(site: impl Into<String>, mode: TriggerMode, kind: FaultKind) -> Self {
        FaultRule {
            site: site.into(),
            mode,
            kind,
        }
    }
}

/// A complete seeded fault schedule: install with [`install`], clear with
/// [`reset`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seeds every probabilistic trigger and every corruption bit choice.
    pub seed: u64,
    /// The failpoint rules; multiple rules may target the same site (the
    /// first that fires on a given hit wins).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan with a seed; chain [`FaultPlan::rule`] to populate.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, site: impl Into<String>, mode: TriggerMode, kind: FaultKind) -> Self {
        self.rules.push(FaultRule::new(site, mode, kind));
        self
    }
}

/// A fault that fired at a site, with the deterministic entropy word the
/// site uses to localize corruption (bit index, etc.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// The rule's fault kind.
    pub kind: FaultKind,
    /// `mix64(seed, site, hit)` — stable across runs; sites derive byte/bit
    /// offsets from it so corruption lands identically under one seed.
    pub entropy: u64,
}

struct RuleState {
    rule: FaultRule,
    fired: AtomicU64,
}

struct ActivePlan {
    seed: u64,
    rules: Vec<RuleState>,
    /// Per-site hit counters, fixed at install time (one slot per distinct
    /// site named by the rules; unnamed sites never allocate).
    sites: Vec<(String, AtomicU64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static RwLock<Option<Arc<ActivePlan>>> {
    static REGISTRY: RwLock<Option<Arc<ActivePlan>>> = RwLock::new(None);
    &REGISTRY
}

/// Installs `plan`, replacing any previous one. Hit counters start at zero.
pub fn install(plan: FaultPlan) {
    let mut sites: Vec<(String, AtomicU64)> = Vec::new();
    for r in &plan.rules {
        if !sites.iter().any(|(s, _)| s == &r.site) {
            sites.push((r.site.clone(), AtomicU64::new(0)));
        }
    }
    let active = ActivePlan {
        seed: plan.seed,
        rules: plan
            .rules
            .into_iter()
            .map(|rule| RuleState {
                rule,
                fired: AtomicU64::new(0),
            })
            .collect(),
        sites,
    };
    *registry().write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(active));
    ENABLED.store(true, Ordering::Release);
}

/// Clears any installed plan; every site goes back to the zero-cost path.
pub fn reset() {
    ENABLED.store(false, Ordering::Release);
    *registry().write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// True when a plan is installed.
#[inline]
pub fn active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How many times any rule has fired at `site` since [`install`] — chaos
/// tests use this to assert injected schedules actually executed.
pub fn fired(site: &str) -> u64 {
    let Some(plan) = current() else { return 0 };
    plan.rules
        .iter()
        .filter(|rs| rs.rule.site == site)
        .map(|rs| rs.fired.load(Ordering::Relaxed))
        .sum()
}

/// Total fires across every rule.
pub fn fired_total() -> u64 {
    let Some(plan) = current() else { return 0 };
    plan.rules
        .iter()
        .map(|rs| rs.fired.load(Ordering::Relaxed))
        .sum()
}

fn current() -> Option<Arc<ActivePlan>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    registry().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// SplitMix64 finalizer — avalanches `(seed, site, hit)` into the decision
/// word. Dependency-free so `janus-common` stays that way. Public because
/// retry jitter and chaos schedules reuse it for seeded determinism.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The core failpoint check. Returns the fault to inject at `site` for
/// this hit, or `None`. One relaxed atomic load when no plan is installed.
#[inline]
pub fn hit(site: &str) -> Option<InjectedFault> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Option<InjectedFault> {
    let plan = current()?;
    let counter = plan.sites.iter().find(|(s, _)| s == site)?;
    // 1-based hit index; fetch_add makes concurrent hitters each see a
    // distinct index, so decisions stay a pure function of (seed, site, n).
    let n = counter.1.fetch_add(1, Ordering::Relaxed) + 1;
    let entropy = mix64(plan.seed ^ fnv1a(site) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for rs in plan.rules.iter().filter(|rs| rs.rule.site == site) {
        let fires = match rs.rule.mode {
            TriggerMode::Nth(k) => n == k,
            TriggerMode::Permanent { after } => n >= after,
            TriggerMode::Probability(p) => ((entropy >> 11) as f64 / (1u64 << 53) as f64) < p,
        };
        if fires {
            rs.fired.fetch_add(1, Ordering::Relaxed);
            return Some(InjectedFault {
                kind: rs.rule.kind,
                entropy,
            });
        }
    }
    None
}

/// Storage-boundary failpoint: `Err(JanusError::Storage)` on
/// [`FaultKind::Error`] / [`FaultKind::CorruptBit`] (no buffer to corrupt
/// here), sleep-then-`Ok` on [`FaultKind::Stall`].
#[inline]
pub fn check_storage(site: &str) -> Result<()> {
    match hit(site) {
        None => Ok(()),
        Some(f) => match f.kind {
            FaultKind::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            FaultKind::Error | FaultKind::CorruptBit => {
                Err(JanusError::Storage(format!("injected fault at {site}")))
            }
        },
    }
}

/// Protocol-boundary failpoint (`Err(JanusError::Protocol)` on error kinds).
#[inline]
pub fn check_protocol(site: &str) -> Result<()> {
    match hit(site) {
        None => Ok(()),
        Some(f) => match f.kind {
            FaultKind::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            FaultKind::Error | FaultKind::CorruptBit => {
                Err(JanusError::Protocol(format!("injected fault at {site}")))
            }
        },
    }
}

/// Corruption failpoint for sites that own a byte buffer: on
/// [`FaultKind::CorruptBit`] / [`FaultKind::Error`], flips one bit chosen
/// by the hit's entropy word (same seed ⇒ same bit) and returns `true`;
/// [`FaultKind::Stall`] sleeps. No-op on an empty buffer.
#[inline]
pub fn maybe_corrupt(site: &str, buf: &mut [u8]) -> bool {
    match hit(site) {
        None => false,
        Some(f) => match f.kind {
            FaultKind::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            FaultKind::CorruptBit | FaultKind::Error => {
                if buf.is_empty() {
                    return false;
                }
                let bit = (f.entropy % (buf.len() as u64 * 8)) as usize;
                buf[bit / 8] ^= 1 << (bit % 8);
                true
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global: serialize every test that installs
    // a plan (same discipline the chaos suite uses).
    static GUARD: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_injects_nothing() {
        let _g = lock();
        reset();
        assert!(!active());
        assert!(hit("anything").is_none());
        assert!(check_storage("x").is_ok());
        let mut buf = [1u8, 2, 3];
        assert!(!maybe_corrupt("x", &mut buf));
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _g = lock();
        install(FaultPlan::new(7).rule("a", TriggerMode::Nth(3), FaultKind::Error));
        let fires: Vec<bool> = (0..6).map(|_| hit("a").is_some()).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(fired("a"), 1);
        reset();
    }

    #[test]
    fn permanent_fires_from_nth_on() {
        let _g = lock();
        install(FaultPlan::new(7).rule("b", TriggerMode::Permanent { after: 2 }, FaultKind::Error));
        let fires: Vec<bool> = (0..4).map(|_| hit("b").is_some()).collect();
        assert_eq!(fires, [false, true, true, true]);
        reset();
    }

    #[test]
    fn probability_decisions_are_seed_deterministic() {
        let _g = lock();
        let run = |seed: u64| -> Vec<bool> {
            install(FaultPlan::new(seed).rule(
                "p",
                TriggerMode::Probability(0.3),
                FaultKind::Error,
            ));
            let v = (0..64).map(|_| hit("p").is_some()).collect();
            reset();
            v
        };
        assert_eq!(run(42), run(42), "same seed must fire identically");
        assert_ne!(run(42), run(43), "different seeds must differ");
        let fires = run(42).iter().filter(|&&b| b).count();
        assert!(
            (5..=35).contains(&fires),
            "p=0.3 over 64 hits fired {fires}"
        );
    }

    #[test]
    fn corruption_flips_the_same_bit_per_seed() {
        let _g = lock();
        let run = || -> Vec<u8> {
            install(FaultPlan::new(11).rule("c", TriggerMode::Nth(1), FaultKind::CorruptBit));
            let mut buf = vec![0u8; 32];
            assert!(maybe_corrupt("c", &mut buf));
            reset();
            buf
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must corrupt the same bit");
        assert_eq!(a.iter().map(|x| x.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn typed_helpers_map_kinds_to_errors() {
        let _g = lock();
        install(FaultPlan::new(1).rule("s", TriggerMode::Permanent { after: 1 }, FaultKind::Error));
        assert!(matches!(check_storage("s"), Err(JanusError::Storage(_))));
        assert!(matches!(check_protocol("s"), Err(JanusError::Protocol(_))));
        reset();
    }

    #[test]
    fn stall_is_not_an_error() {
        let _g = lock();
        install(FaultPlan::new(1).rule("z", TriggerMode::Nth(1), FaultKind::Stall(1)));
        assert!(check_storage("z").is_ok());
        reset();
    }

    #[test]
    fn unnamed_sites_never_fire() {
        let _g = lock();
        install(FaultPlan::new(1).rule(
            "only",
            TriggerMode::Permanent { after: 1 },
            FaultKind::Error,
        ));
        assert!(hit("other").is_none());
        assert_eq!(fired_total(), 0);
        reset();
    }
}
