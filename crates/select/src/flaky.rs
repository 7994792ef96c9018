//! Flaky-selector wrapper: fault injection for selection engines.
//!
//! Real selection substrates reject requests, time out, and return
//! fewer hosts than asked for — the operational reality that motivates
//! the paper's alternative-specification ladder (Section VII.4). This
//! module wraps any of the three engines (vgDL finder, ClassAds
//! matchmaker, SWORD engine — anything producing an
//! `Option<ResourceCollection>`) in a deterministic, seeded fault
//! injector:
//!
//! * **Rejection** — the request is refused outright.
//! * **Partial fulfillment** — the engine's RC is truncated to a
//!   fraction of the requested hosts (prefix, so the result is still a
//!   valid RC of the same family).
//! * **Latency spikes / timeouts** — the simulated response time jumps
//!   from the base latency to the spike latency; spikes at or beyond
//!   the configured timeout are reported as [`SelectionOutcome::TimedOut`].
//!
//! All randomness comes from one seeded [`StdRng`], and every `select`
//! call draws the same number of variates in the same order regardless
//! of which branch fires, so outcome streams are reproducible and
//! insensitive to the inner engine's behavior. Latencies are
//! *simulated* (returned in the outcome, never slept), which keeps
//! negotiation experiments fast and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsg_obs::{Counter, TimingHistogram};
use rsg_platform::ResourceCollection;
use std::fmt;

/// Selector calls routed through a flaky wrapper.
static OBS_CALLS: Counter = Counter::new("select.flaky.calls");
/// Calls that were rejected by injection.
static OBS_REJECTED: Counter = Counter::new("select.flaky.rejected");
/// Calls that timed out by injection.
static OBS_TIMEOUT: Counter = Counter::new("select.flaky.timeouts");
/// Calls fulfilled only partially.
static OBS_PARTIAL: Counter = Counter::new("select.flaky.partial");
/// Simulated selector latency.
static OBS_LATENCY: TimingHistogram = TimingHistogram::new("select.flaky.latency");

/// Injection knobs for a [`FlakySelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyConfig {
    /// RNG seed for the injection stream.
    pub seed: u64,
    /// Probability a request is rejected outright, in `[0, 1]`.
    pub reject_rate: f64,
    /// Probability a fulfilled request is truncated, in `[0, 1]`.
    pub partial_rate: f64,
    /// Fraction of the result kept on partial fulfillment, in `(0, 1]`.
    pub partial_keep: f64,
    /// Probability of a latency spike, in `[0, 1]`.
    pub spike_rate: f64,
    /// Simulated response latency of a healthy call, seconds.
    pub base_latency_s: f64,
    /// Simulated response latency of a spiked call, seconds.
    pub spike_latency_s: f64,
    /// Client-side timeout: a spike at or beyond this becomes a
    /// [`SelectionOutcome::TimedOut`], seconds.
    pub timeout_s: f64,
}

impl Default for FlakyConfig {
    fn default() -> Self {
        FlakyConfig {
            seed: 0,
            reject_rate: 0.0,
            partial_rate: 0.0,
            partial_keep: 0.5,
            spike_rate: 0.0,
            base_latency_s: 0.5,
            spike_latency_s: 30.0,
            timeout_s: 60.0,
        }
    }
}

impl FlakyConfig {
    /// A selector that fails a `rate` fraction of calls (half rejected,
    /// half spiked) — the shape used by `--selector-flaky SEED:RATE`.
    pub fn from_seed_rate(seed: u64, rate: f64) -> FlakyConfig {
        FlakyConfig {
            seed,
            reject_rate: rate * 0.5,
            spike_rate: rate * 0.5,
            partial_rate: rate * 0.5,
            ..Default::default()
        }
    }

    /// Validates rates are probabilities, the keep fraction is in
    /// `(0, 1]`, and latencies are finite and non-negative.
    pub fn validate(&self) -> Result<(), FlakyError> {
        let prob = |v: f64, what: &'static str| -> Result<(), FlakyError> {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(FlakyError::BadRate { what, value: v });
            }
            Ok(())
        };
        prob(self.reject_rate, "reject_rate")?;
        prob(self.partial_rate, "partial_rate")?;
        prob(self.spike_rate, "spike_rate")?;
        if !self.partial_keep.is_finite() || self.partial_keep <= 0.0 || self.partial_keep > 1.0 {
            return Err(FlakyError::BadKeepFraction(self.partial_keep));
        }
        for (v, what) in [
            (self.base_latency_s, "base_latency_s"),
            (self.spike_latency_s, "spike_latency_s"),
            (self.timeout_s, "timeout_s"),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(FlakyError::BadLatency { what, value: v });
            }
        }
        Ok(())
    }
}

/// Validation errors for a [`FlakyConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlakyError {
    /// A rate outside `[0, 1]`.
    BadRate {
        /// Which knob.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A partial-keep fraction outside `(0, 1]`.
    BadKeepFraction(f64),
    /// A negative or non-finite latency.
    BadLatency {
        /// Which knob.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for FlakyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlakyError::BadRate { what, value } => {
                write!(f, "{what} = {value} is not a probability")
            }
            FlakyError::BadKeepFraction(v) => {
                write!(f, "partial_keep = {v} is not in (0, 1]")
            }
            FlakyError::BadLatency { what, value } => {
                write!(f, "{what} = {value} is not a valid latency")
            }
        }
    }
}

impl std::error::Error for FlakyError {}

/// What one selector call produced, with its simulated latency.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionOutcome {
    /// The full request was satisfied.
    Fulfilled {
        /// The selected collection.
        rc: ResourceCollection,
        /// Simulated response latency, seconds.
        latency_s: f64,
    },
    /// The request was satisfied with fewer hosts than found.
    Partial {
        /// The truncated collection.
        rc: ResourceCollection,
        /// Hosts the inner engine had actually found.
        found: usize,
        /// Simulated response latency, seconds.
        latency_s: f64,
    },
    /// The selector refused the request (transient: a retry may
    /// succeed).
    Rejected {
        /// Simulated response latency, seconds.
        latency_s: f64,
    },
    /// The call exceeded the client timeout; the latency is the full
    /// timeout budget that was burned waiting.
    TimedOut {
        /// Seconds burned before giving up.
        latency_s: f64,
    },
    /// The platform genuinely has no matching resources (permanent:
    /// retrying the same spec cannot succeed).
    Unmatched {
        /// Simulated response latency, seconds.
        latency_s: f64,
    },
}

impl SelectionOutcome {
    /// Simulated latency of the call, seconds.
    pub fn latency_s(&self) -> f64 {
        match self {
            SelectionOutcome::Fulfilled { latency_s, .. }
            | SelectionOutcome::Partial { latency_s, .. }
            | SelectionOutcome::Rejected { latency_s }
            | SelectionOutcome::TimedOut { latency_s }
            | SelectionOutcome::Unmatched { latency_s } => *latency_s,
        }
    }

    /// The resource collection, when one was returned.
    pub fn rc(&self) -> Option<&ResourceCollection> {
        match self {
            SelectionOutcome::Fulfilled { rc, .. } | SelectionOutcome::Partial { rc, .. } => {
                Some(rc)
            }
            _ => None,
        }
    }
}

/// Running tallies of a [`FlakySelector`]'s behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlakyStats {
    /// Total calls.
    pub calls: u64,
    /// Fully fulfilled calls.
    pub fulfilled: u64,
    /// Partially fulfilled calls.
    pub partial: u64,
    /// Injected rejections.
    pub rejected: u64,
    /// Injected timeouts.
    pub timeouts: u64,
    /// Calls where the platform had no match.
    pub unmatched: u64,
}

/// A deterministic fault injector in front of a selection engine.
#[derive(Debug, Clone)]
pub struct FlakySelector {
    cfg: FlakyConfig,
    rng: StdRng,
    stats: FlakyStats,
}

impl FlakySelector {
    /// Builds the injector after validating `cfg`.
    pub fn new(cfg: FlakyConfig) -> Result<FlakySelector, FlakyError> {
        cfg.validate()?;
        Ok(FlakySelector {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: FlakyStats::default(),
        })
    }

    /// Tallies so far.
    pub fn stats(&self) -> FlakyStats {
        self.stats
    }

    /// Runs one selector call through the injector. `inner` is invoked
    /// lazily — a call that times out never reaches the engine (the
    /// response would arrive after the client gave up).
    ///
    /// The three injection variates (spike, reject, partial) are drawn
    /// *before* any branching so the random stream advances identically
    /// on every call, keeping multi-call experiments reproducible
    /// whatever the inner engine returns.
    pub fn select<F>(&mut self, inner: F) -> SelectionOutcome
    where
        F: FnOnce() -> Option<ResourceCollection>,
    {
        let spiked = self.rng.gen_bool(self.cfg.spike_rate);
        let rejected = self.rng.gen_bool(self.cfg.reject_rate);
        let partial = self.rng.gen_bool(self.cfg.partial_rate);

        self.stats.calls += 1;
        OBS_CALLS.incr();
        let latency_s = if spiked {
            self.cfg.spike_latency_s
        } else {
            self.cfg.base_latency_s
        };
        let outcome = if spiked && latency_s >= self.cfg.timeout_s {
            self.stats.timeouts += 1;
            OBS_TIMEOUT.incr();
            SelectionOutcome::TimedOut {
                latency_s: self.cfg.timeout_s,
            }
        } else if rejected {
            self.stats.rejected += 1;
            OBS_REJECTED.incr();
            SelectionOutcome::Rejected { latency_s }
        } else {
            match inner() {
                None => {
                    self.stats.unmatched += 1;
                    SelectionOutcome::Unmatched { latency_s }
                }
                Some(rc) => {
                    let found = rc.len();
                    if partial && found > 1 {
                        let keep = ((found as f64 * self.cfg.partial_keep).ceil() as usize)
                            .clamp(1, found);
                        self.stats.partial += 1;
                        OBS_PARTIAL.incr();
                        SelectionOutcome::Partial {
                            rc: rc.prefix(keep),
                            found,
                            latency_s,
                        }
                    } else {
                        self.stats.fulfilled += 1;
                        SelectionOutcome::Fulfilled { rc, latency_s }
                    }
                }
            }
        };
        if rsg_obs::enabled() {
            OBS_LATENCY.record_secs(outcome.latency_s());
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classad::parse_classad;
    use crate::sword::{AttrRange, Bound, SwordEngine, SwordGroup, SwordRequest};
    use crate::vgdl::{Aggregate, AggregateKind, CmpOp, NodeConstraint, VgdlSpec, VgesFinder};
    use crate::Matchmaker;
    use rsg_platform::{Platform, PlatformFile};

    fn platform() -> Platform {
        PlatformFile::serve_default().realize()
    }

    fn vgdl_req() -> VgdlSpec {
        VgdlSpec::single(Aggregate {
            kind: AggregateKind::TightBagOf,
            var: "nodes".into(),
            min: 8,
            max: 24,
            rank: Some("Clock".into()),
            constraints: vec![NodeConstraint::num("Clock", CmpOp::Ge, 1200.0)],
        })
    }

    fn sword_req() -> SwordRequest {
        SwordRequest::with_groups(vec![SwordGroup {
            name: "G".into(),
            num_machines: 24,
            attrs: vec![AttrRange {
                name: "clock".into(),
                req_min: 1200.0,
                des_min: 1200.0,
                des_max: Bound::Max,
                req_max: Bound::Max,
                penalty: 0.0,
            }],
            os: Some("Linux".into()),
            region: None,
        }])
    }

    #[test]
    fn healthy_wrapper_passes_through_all_engines() {
        let p = platform();
        let mut flaky = FlakySelector::new(FlakyConfig::default()).unwrap();

        let vg = flaky.select(|| VgesFinder::default().find(&p, &vgdl_req()));
        assert!(matches!(vg, SelectionOutcome::Fulfilled { .. }), "{vg:?}");

        let ad = parse_classad(
            r#"[ Type = "Job";
                 Count = 24;
                 Requirements = other.Type == "Machine" && other.Clock >= 1200;
                 Rank = other.Clock ]"#,
        )
        .unwrap();
        let ca = flaky.select(|| Matchmaker::from_platform(&p).select_hosts(&ad, &p));
        assert!(matches!(ca, SelectionOutcome::Fulfilled { .. }), "{ca:?}");

        let sw = flaky.select(|| SwordEngine.select(&p, &sword_req()));
        assert!(matches!(sw, SelectionOutcome::Fulfilled { .. }), "{sw:?}");

        assert_eq!(flaky.stats().calls, 3);
        assert_eq!(flaky.stats().fulfilled, 3);
        assert_eq!(vg.latency_s(), 0.5);
    }

    #[test]
    fn always_reject_never_reaches_the_engine() {
        let cfg = FlakyConfig {
            reject_rate: 1.0,
            ..Default::default()
        };
        let mut flaky = FlakySelector::new(cfg).unwrap();
        for _ in 0..10 {
            let out = flaky.select(|| panic!("inner engine must not be called"));
            assert!(matches!(out, SelectionOutcome::Rejected { .. }));
        }
        assert_eq!(flaky.stats().rejected, 10);
    }

    #[test]
    fn timeout_burns_the_full_budget_and_skips_the_engine() {
        let cfg = FlakyConfig {
            spike_rate: 1.0,
            spike_latency_s: 90.0,
            timeout_s: 60.0,
            ..Default::default()
        };
        let mut flaky = FlakySelector::new(cfg).unwrap();
        let out = flaky.select(|| panic!("inner engine must not be called"));
        assert_eq!(out, SelectionOutcome::TimedOut { latency_s: 60.0 });
        // A spike below the timeout is just slow, not dead.
        let cfg = FlakyConfig {
            spike_rate: 1.0,
            spike_latency_s: 30.0,
            timeout_s: 60.0,
            ..Default::default()
        };
        let mut flaky = FlakySelector::new(cfg).unwrap();
        let p = platform();
        let out = flaky.select(|| VgesFinder::default().find(&p, &vgdl_req()));
        assert!(matches!(
            out,
            SelectionOutcome::Fulfilled { latency_s, .. } if latency_s == 30.0
        ));
    }

    #[test]
    fn partial_truncates_to_a_prefix() {
        let cfg = FlakyConfig {
            partial_rate: 1.0,
            partial_keep: 0.25,
            ..Default::default()
        };
        let mut flaky = FlakySelector::new(cfg).unwrap();
        let p = platform();
        let out = flaky.select(|| VgesFinder::default().find(&p, &vgdl_req()));
        let SelectionOutcome::Partial { rc, found, .. } = out else {
            panic!("expected partial fulfillment, got {out:?}");
        };
        assert!(found >= 8);
        assert_eq!(rc.len(), (found as f64 * 0.25).ceil() as usize);
    }

    #[test]
    fn unmatched_is_distinct_from_injected_rejection() {
        let mut flaky = FlakySelector::new(FlakyConfig::default()).unwrap();
        let out = flaky.select(|| None);
        assert!(matches!(out, SelectionOutcome::Unmatched { .. }));
        assert_eq!(flaky.stats().unmatched, 1);
        assert_eq!(flaky.stats().rejected, 0);
    }

    #[test]
    fn outcome_stream_is_seed_deterministic() {
        let cfg = FlakyConfig {
            seed: 7,
            reject_rate: 0.3,
            spike_rate: 0.3,
            partial_rate: 0.3,
            spike_latency_s: 90.0,
            ..Default::default()
        };
        let run = || {
            let mut flaky = FlakySelector::new(cfg).unwrap();
            let rc = ResourceCollection::homogeneous(8, 1500.0);
            (0..50)
                .map(|_| match flaky.select(|| Some(rc.clone())) {
                    SelectionOutcome::Fulfilled { .. } => 'f',
                    SelectionOutcome::Partial { .. } => 'p',
                    SelectionOutcome::Rejected { .. } => 'r',
                    SelectionOutcome::TimedOut { .. } => 't',
                    SelectionOutcome::Unmatched { .. } => 'u',
                })
                .collect::<String>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains('r') && a.contains('t') && a.contains('f'));
        // The stream position does not depend on the inner result.
        let mut with_none = FlakySelector::new(cfg).unwrap();
        let mut with_some = FlakySelector::new(cfg).unwrap();
        let rc = ResourceCollection::homogeneous(8, 1500.0);
        for _ in 0..20 {
            let a = with_none.select(|| None);
            let b = with_some.select(|| Some(rc.clone()));
            // Injected failures fire identically on both.
            assert_eq!(
                matches!(
                    a,
                    SelectionOutcome::Rejected { .. } | SelectionOutcome::TimedOut { .. }
                ),
                matches!(
                    b,
                    SelectionOutcome::Rejected { .. } | SelectionOutcome::TimedOut { .. }
                )
            );
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let bad = FlakyConfig {
            reject_rate: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            FlakySelector::new(bad),
            Err(FlakyError::BadRate {
                what: "reject_rate",
                ..
            })
        ));
        let bad = FlakyConfig {
            partial_keep: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            FlakySelector::new(bad),
            Err(FlakyError::BadKeepFraction(_))
        ));
        let bad = FlakyConfig {
            timeout_s: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            FlakySelector::new(bad),
            Err(FlakyError::BadLatency {
                what: "timeout_s",
                ..
            })
        ));
    }
}
