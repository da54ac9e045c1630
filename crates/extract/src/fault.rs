//! Fault-tolerance layer for the sharded extraction pipeline.
//!
//! The paper ran extraction "on up to 5000 nodes" over a 40 TB snapshot
//! (§7.1); at that scale shard-level failures are routine and the job must
//! still converge on dominant opinions from the shards that survive.
//! Because evidence-table merge is associative and commutative (see
//! [`crate::runner`]), dropping or retrying shards is semantically safe —
//! the model simply sees fewer statements, exactly as it would on a
//! partial crawl.
//!
//! The pieces:
//!
//! - [`ShardError`] — typed shard failures, split into transient
//!   (retryable) and permanent (quarantine immediately) classes, with
//!   panics isolated by the runner as their own class.
//! - [`FallibleShardSource`] — the `Result`-returning extension of
//!   [`ShardSource`]; every infallible source implements it for free.
//! - [`FaultInjector`] / [`FaultPlan`] — a deterministic chaos harness
//!   that wraps any source and injects panics, transient errors,
//!   permanent errors, and slow shards according to a seeded plan.
//! - [`RetryPolicy`] — capped exponential backoff with a per-shard
//!   attempt budget. The schedule is a pure function of the attempt
//!   number, so tests assert it without touching a clock.
//! - [`FailurePolicy`] — what the run does about failed shards:
//!   [`FailFast`](FailurePolicy::FailFast) aborts on the first failure,
//!   [`Degrade`](FailurePolicy::Degrade) quarantines failed shards and
//!   completes as long as shard coverage stays above a floor.
//! - [`ShardCoverage`] / [`RunOutcome`] / [`RunError`] — the accounting
//!   that makes a degraded answer visible instead of silent.

use crate::runner::ShardSource;
use std::borrow::Cow;
use std::fmt;
use std::time::Duration;
use surveyor_nlp::AnnotatedDocument;
use surveyor_prob::rng::splitmix64;

/// Why materializing or extracting a shard failed.
///
/// The transient/permanent split drives the retry state machine: only
/// [`Transient`](Self::Transient) failures are retried; the other two
/// classes quarantine the shard on first sight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A failure that may succeed on retry (flaky I/O, timeouts,
    /// overloaded storage).
    Transient(String),
    /// A failure retrying cannot fix (corrupt input, missing shard).
    Permanent(String),
    /// The shard's worker panicked; the runner caught the unwind and
    /// poisons the shard rather than the run.
    Panicked(String),
}

impl ShardError {
    /// Whether the retry loop should try this shard again.
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::Transient(_))
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        match self {
            Self::Transient(m) | Self::Permanent(m) | Self::Panicked(m) => m,
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transient(m) => write!(f, "transient: {m}"),
            Self::Permanent(m) => write!(f, "permanent: {m}"),
            Self::Panicked(m) => write!(f, "panicked: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A [`ShardSource`] whose shard materialization can fail.
///
/// `attempt` is the zero-based attempt number for this shard, so sources
/// (and the [`FaultInjector`]) can behave differently across retries —
/// e.g. a transient fault that clears after `n` failures.
pub trait FallibleShardSource: Sync {
    /// Number of shards available.
    fn shard_count(&self) -> usize;

    /// Materializes shard `index`, or reports why it cannot.
    fn try_shard(
        &self,
        index: usize,
        attempt: u32,
    ) -> Result<Cow<'_, [AnnotatedDocument]>, ShardError>;
}

/// Every infallible source is trivially fallible: materialization never
/// errors (though it may still panic, which the hardened runner isolates).
impl<S: ShardSource> FallibleShardSource for S {
    fn shard_count(&self) -> usize {
        ShardSource::shard_count(self)
    }

    fn try_shard(
        &self,
        index: usize,
        _attempt: u32,
    ) -> Result<Cow<'_, [AnnotatedDocument]>, ShardError> {
        Ok(self.shard(index))
    }
}

/// A view of selected shards of a wrapped source, renumbered `0..len`.
///
/// This is how incremental mining addresses a corpus: the base mine reads
/// the prefix `[0, k)` of a world's shards, a delta update reads a later
/// range, and quarantine replay reads exactly the previously-lost shard
/// ids — all against the *same* deterministic generator, so shard `i` of
/// the world produces identical documents no matter which subset view it
/// is materialized through.
#[derive(Debug)]
pub struct ShardSubset<S> {
    inner: S,
    shards: Vec<usize>,
}

impl<S: FallibleShardSource> ShardSubset<S> {
    /// A view of `inner` restricted to the given world-shard indexes
    /// (in the given order). Indexes must be in range for `inner`.
    pub fn new(inner: S, shards: Vec<usize>) -> Self {
        for &shard in &shards {
            assert!(
                shard < inner.shard_count(),
                "subset shard {shard} out of range for source with {} shards",
                inner.shard_count()
            );
        }
        Self { inner, shards }
    }

    /// A view of the contiguous world-shard range `start..end`.
    pub fn range(inner: S, start: usize, end: usize) -> Self {
        Self::new(inner, (start..end).collect())
    }

    /// The world-shard indexes this view exposes, in view order.
    pub fn shards(&self) -> &[usize] {
        &self.shards
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: FallibleShardSource> FallibleShardSource for ShardSubset<S> {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn try_shard(
        &self,
        index: usize,
        attempt: u32,
    ) -> Result<Cow<'_, [AnnotatedDocument]>, ShardError> {
        self.inner.try_shard(self.shards[index], attempt)
    }
}

/// One injected fault, assigned to a single shard of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The shard panics on every attempt (a poisoned shard).
    Panic,
    /// The shard fails with a transient error on the first `failures`
    /// attempts, then succeeds.
    Transient {
        /// Attempts that fail before the shard recovers.
        failures: u32,
    },
    /// The shard fails with a permanent error on every attempt.
    Permanent,
    /// The shard succeeds but only after a deterministic delay — the
    /// straggler case.
    Slow {
        /// Extra latency injected before materialization.
        millis: u64,
    },
}

/// A deterministic per-shard fault assignment — the chaos harness input.
///
/// Plans are pure data: the same plan always injects the same faults, so
/// chaos tests are reproducible and their expected accounting can be
/// computed from the plan itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(usize, Fault)>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Assigns `fault` to `shard` (last assignment per shard wins).
    pub fn with(mut self, shard: usize, fault: Fault) -> Self {
        self.faults.retain(|(s, _)| *s != shard);
        self.faults.push((shard, fault));
        self
    }

    /// A seeded pseudo-random plan over `shard_count` shards: roughly 15%
    /// transient shards (1–2 failures), 5% permanent, 5% panicking, and 5%
    /// slow, the rest clean. Deterministic in `(seed, shard_count)` — the
    /// plan behind the CLI's `--chaos-seed` and the chaos integration
    /// test's `SURVEYOR_CHAOS_SEED`.
    pub fn from_seed(seed: u64, shard_count: usize) -> Self {
        let mut plan = Self::none();
        for shard in 0..shard_count {
            // SplitMix64 over (seed, shard): stable across platforms.
            let x = splitmix64(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let roll = x % 100;
            let fault = match roll {
                0..=14 => Fault::Transient {
                    failures: 1 + (splitmix64(x) % 2) as u32,
                },
                15..=19 => Fault::Permanent,
                20..=24 => Fault::Panic,
                25..=29 => Fault::Slow { millis: 1 },
                _ => continue,
            };
            plan = plan.with(shard, fault);
        }
        plan
    }

    /// The fault assigned to `shard`, if any.
    pub fn fault(&self, shard: usize) -> Option<Fault> {
        self.faults
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, f)| *f)
    }

    /// All (shard, fault) assignments, in assignment order.
    pub fn assignments(&self) -> &[(usize, Fault)] {
        &self.faults
    }

    /// The shards this plan will quarantine under a `max_attempts`
    /// budget, sorted: panicking and permanent shards, plus transient
    /// shards whose failure count exhausts the budget.
    pub fn expected_quarantine(&self, max_attempts: u32) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .faults
            .iter()
            .filter(|(_, f)| match f {
                Fault::Panic | Fault::Permanent => true,
                Fault::Transient { failures } => *failures >= max_attempts,
                Fault::Slow { .. } => false,
            })
            .map(|(s, _)| *s)
            .collect();
        shards.sort_unstable();
        shards
    }

    /// Total retry attempts this plan will cost under a `max_attempts`
    /// budget: each transient shard retries until it recovers or the
    /// budget is spent.
    pub fn expected_retries(&self, max_attempts: u32) -> u64 {
        self.faults
            .iter()
            .map(|(_, f)| match f {
                Fault::Transient { failures } => u64::from((*failures).min(max_attempts - 1)),
                _ => 0,
            })
            .sum()
    }
}

/// Wraps any fallible source and injects the faults of a [`FaultPlan`] —
/// the chaos harness used by tests, `scripts/verify.sh`, and the CLI's
/// `--chaos-seed` flag.
#[derive(Debug)]
pub struct FaultInjector<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S: FallibleShardSource> FaultInjector<S> {
    /// Wraps `inner`, injecting according to `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: FallibleShardSource> FallibleShardSource for FaultInjector<S> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    #[expect(
        clippy::panic,
        reason = "deliberate: the injector panics so catch_unwind isolation is exercised"
    )]
    fn try_shard(
        &self,
        index: usize,
        attempt: u32,
    ) -> Result<Cow<'_, [AnnotatedDocument]>, ShardError> {
        match self.plan.fault(index) {
            Some(Fault::Panic) => panic!("injected panic in shard {index}"),
            Some(Fault::Transient { failures }) if attempt < failures => Err(
                ShardError::Transient(format!("injected transient fault in shard {index}")),
            ),
            Some(Fault::Permanent) => Err(ShardError::Permanent(format!(
                "injected permanent fault in shard {index}"
            ))),
            Some(Fault::Slow { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.try_shard(index, attempt)
            }
            _ => self.inner.try_shard(index, attempt),
        }
    }
}

/// Retry budget and backoff schedule for transient shard failures.
///
/// The schedule is capped exponential: retry `r` (zero-based) waits
/// `base_backoff * 2^r`, clamped to `max_backoff`. [`backoff`] is a pure
/// function of the retry index, so the schedule is unit-testable without
/// any clock; [`RetryPolicy::immediate`] zeroes the delays entirely for
/// deterministic tests.
///
/// [`backoff`]: Self::backoff
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-shard attempt budget (first attempt included); at least 1.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: Duration,
    /// Upper clamp on any single delay.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// The default attempt budget with zero backoff — retries are still
    /// performed but never sleep, keeping tests wall-clock free.
    pub fn immediate() -> Self {
        Self {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..Self::default()
        }
    }

    /// A single attempt: no retries at all.
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::immediate()
        }
    }

    /// The delay before zero-based retry `retry`: `base * 2^retry`
    /// clamped to `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

/// What the run does about shards that fail for good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailurePolicy {
    /// Abort on the first shard that exhausts its attempt budget; the
    /// error names the lowest-indexed failed shard.
    FailFast,
    /// Quarantine failed shards and keep going, as long as the fraction
    /// of succeeded shards stays at or above `min_shard_coverage`.
    Degrade {
        /// Coverage floor in `[0, 1]`; below it the run errors instead
        /// of returning a silently hollow answer.
        min_shard_coverage: f64,
    },
}

impl FailurePolicy {
    /// The degrade policy with no coverage floor: any surviving shard
    /// subset is accepted.
    pub fn degrade_unchecked() -> Self {
        Self::Degrade {
            min_shard_coverage: 0.0,
        }
    }
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FailFast => write!(f, "failfast"),
            Self::Degrade { min_shard_coverage } => {
                write!(f, "degrade (min coverage {min_shard_coverage})")
            }
        }
    }
}

/// A shard that exhausted its attempt budget and was dropped from the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// The shard index.
    pub shard: usize,
    /// Attempts spent before quarantining.
    pub attempts: u32,
    /// The final error.
    pub error: ShardError,
}

/// Per-run shard accounting: what was attempted, what survived, what was
/// lost. [`RunOutcome`] carries it alongside the merged output so a
/// degraded answer is never silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardCoverage {
    /// Shards in the source.
    pub shard_count: usize,
    /// Shards whose evidence made it into the output.
    pub succeeded: usize,
    /// Total retry attempts across all shards (attempts beyond each
    /// shard's first).
    pub retries: u64,
    /// Shards dropped after exhausting their attempt budget, sorted by
    /// shard index.
    pub quarantined: Vec<QuarantinedShard>,
}

impl ShardCoverage {
    /// Shards attempted at least once (succeeded or quarantined).
    pub fn attempted(&self) -> usize {
        self.succeeded + self.quarantined.len()
    }

    /// Fraction of shards that succeeded (1.0 for an empty source).
    pub fn fraction(&self) -> f64 {
        if self.shard_count == 0 {
            1.0
        } else {
            self.succeeded as f64 / self.shard_count as f64
        }
    }

    /// The quarantined shard indices, sorted.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.quarantined.iter().map(|q| q.shard).collect()
    }
}

/// A fault-tolerant run's result: the merged output plus the shard
/// accounting behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Merged evidence and provenance from every surviving shard.
    pub output: crate::runner::ExtractionOutput,
    /// What was attempted, retried, and lost.
    pub coverage: ShardCoverage,
}

/// Why a fault-tolerant run returned no output.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Under [`FailurePolicy::FailFast`]: the lowest-indexed shard that
    /// exhausted its attempt budget.
    ShardFailed {
        /// The failed shard.
        shard: usize,
        /// Attempts spent on it.
        attempts: u32,
        /// Its final error.
        error: ShardError,
    },
    /// Under [`FailurePolicy::Degrade`]: too many shards were lost.
    CoverageBelowFloor {
        /// Shards that succeeded.
        succeeded: usize,
        /// Shards in the source.
        shard_count: usize,
        /// The configured floor.
        min_shard_coverage: f64,
        /// The quarantined shard indices, sorted.
        quarantined: Vec<usize>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShardFailed {
                shard,
                attempts,
                error,
            } => write!(
                f,
                "shard {shard} failed after {attempts} attempt(s): {error}"
            ),
            Self::CoverageBelowFloor {
                succeeded,
                shard_count,
                min_shard_coverage,
                quarantined,
            } => write!(
                f,
                "shard coverage {succeeded}/{shard_count} below floor {min_shard_coverage} \
                 (quarantined shards: {quarantined:?})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Re-raises a failed run as the panic the infallible entry points
    /// document ([`run_sharded_full`](crate::run_sharded_full) and the
    /// pipeline's `run`): they take an infallible source, one attempt per
    /// shard and [`FailurePolicy::FailFast`], so the only way to get here
    /// is a shard that panicked — isolation is what
    /// [`run_sharded_fault_tolerant`](crate::run_sharded_fault_tolerant)
    /// callers opt into.
    #[expect(
        clippy::panic,
        reason = "documented: the infallible entry points propagate shard panics"
    )]
    pub fn into_panic(self) -> ! {
        let message = match self {
            Self::ShardFailed { shard, error, .. } => format!(
                "extraction worker panicked on shard {shard}: {}",
                error.message()
            ),
            // Infallible sources cannot fail any other way and FailFast
            // checks no coverage floor.
            other => format!("extraction failed: {other}"),
        };
        panic!("{message}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(1), Duration::from_millis(20));
        assert_eq!(policy.backoff(2), Duration::from_millis(40));
        assert_eq!(policy.backoff(3), Duration::from_millis(60)); // capped
        assert_eq!(policy.backoff(40), Duration::from_millis(60)); // overflow-safe
        assert_eq!(RetryPolicy::immediate().backoff(3), Duration::ZERO);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_mixed() {
        let a = FaultPlan::from_seed(2015, 256);
        let b = FaultPlan::from_seed(2015, 256);
        assert_eq!(a, b);
        let faulted = a.assignments().len();
        assert!(
            faulted > 256 / 10 && faulted < 256 / 2,
            "unexpected fault density: {faulted}/256"
        );
        assert_ne!(a, FaultPlan::from_seed(2016, 256));
    }

    #[test]
    fn plan_predicts_quarantine_and_retries() {
        let plan = FaultPlan::none()
            .with(0, Fault::Panic)
            .with(2, Fault::Transient { failures: 1 })
            .with(3, Fault::Transient { failures: 5 })
            .with(5, Fault::Permanent)
            .with(6, Fault::Slow { millis: 1 });
        assert_eq!(plan.expected_quarantine(3), vec![0, 3, 5]);
        // Shard 2 retries once and recovers; shard 3 burns both retries.
        assert_eq!(plan.expected_retries(3), 1 + 2);
    }

    #[test]
    fn with_replaces_earlier_assignment() {
        let plan = FaultPlan::none()
            .with(1, Fault::Permanent)
            .with(1, Fault::Transient { failures: 1 });
        assert_eq!(plan.fault(1), Some(Fault::Transient { failures: 1 }));
        assert_eq!(plan.assignments().len(), 1);
    }

    #[test]
    fn shard_subset_remaps_indexes() {
        // A source whose shards are identifiable by their error message.
        struct Tagged;
        impl FallibleShardSource for Tagged {
            fn shard_count(&self) -> usize {
                8
            }
            fn try_shard(
                &self,
                index: usize,
                _attempt: u32,
            ) -> Result<Cow<'_, [AnnotatedDocument]>, ShardError> {
                Err(ShardError::Permanent(format!("world shard {index}")))
            }
        }
        let subset = ShardSubset::new(Tagged, vec![5, 2, 7]);
        assert_eq!(FallibleShardSource::shard_count(&subset), 3);
        assert_eq!(subset.shards(), &[5, 2, 7]);
        for (view, world) in [(0, 5), (1, 2), (2, 7)] {
            let err = subset.try_shard(view, 0).unwrap_err();
            assert_eq!(err.message(), format!("world shard {world}"));
        }
        let range = ShardSubset::range(Tagged, 3, 6);
        assert_eq!(range.shards(), &[3, 4, 5]);
        assert_eq!(range.inner().shard_count(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_subset_rejects_out_of_range_indexes() {
        struct Empty;
        impl FallibleShardSource for Empty {
            fn shard_count(&self) -> usize {
                2
            }
            fn try_shard(
                &self,
                _index: usize,
                _attempt: u32,
            ) -> Result<Cow<'_, [AnnotatedDocument]>, ShardError> {
                Ok(Cow::Owned(Vec::new()))
            }
        }
        let _ = ShardSubset::new(Empty, vec![0, 2]);
    }

    #[test]
    fn errors_render_their_class() {
        assert_eq!(
            ShardError::Transient("t".into()).to_string(),
            "transient: t"
        );
        assert!(!ShardError::Permanent("p".into()).is_transient());
        assert!(ShardError::Transient("t".into()).is_transient());
        let err = RunError::ShardFailed {
            shard: 4,
            attempts: 3,
            error: ShardError::Panicked("boom".into()),
        };
        assert!(err.to_string().contains("shard 4"));
        assert!(err.to_string().contains("panicked: boom"));
    }
}
