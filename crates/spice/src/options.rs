//! Simulation options: Newton budget, time-step control and the
//! integration method shared by every DC and transient analysis, plus the
//! fixed convergence tolerances ([`RELTOL`], [`VNTOL`], [`ABSTOL`],
//! [`GMIN`]).
//!
//! The scalar entry points
//! ([`dc_operating_point`](crate::dc_operating_point),
//! [`transient`](crate::transient),
//! [`transient_cached`](crate::transient_cached)) take a [`SimOptions`]
//! and call [`SimOptions::validate`] first, so an out-of-domain option surfaces as
//! a named [`SpiceError::InvalidOption`] instead of a silent
//! mis-simulation:
//!
//! ```
//! use clocksense_spice::SimOptions;
//!
//! let bad = SimOptions {
//!     tstep: -1e-12, // negative time step
//!     ..SimOptions::default()
//! };
//! let err = bad.validate().unwrap_err();
//! assert!(err.to_string().contains("tstep"));
//! ```
//!
//! The cost of a given option set is observable: run any analysis with
//! the global telemetry registry enabled and the `spice.*` counters
//! report Newton iterations, LU factorizations and transient step
//! accept/reject statistics (see the `clocksense-telemetry` crate and
//! the `--report` flag of the experiment binaries).

use clocksense_exec::Deadline;

use crate::error::SpiceError;

/// Relative Newton convergence tolerance on node voltages and branch
/// currents (Berkeley SPICE's `reltol`).
pub const RELTOL: f64 = 1e-3;
/// Absolute Newton convergence tolerance on node voltages (V).
pub const VNTOL: f64 = 1e-6;
/// Absolute Newton convergence tolerance on branch currents (A).
pub const ABSTOL: f64 = 1e-12;
/// Minimum conductance tied across every MOSFET channel and from every
/// node to ground (S); also the floor of DC gmin stepping. It bounds the
/// leakage floor of IDDQ readings.
pub const GMIN: f64 = 1e-12;

/// Time-integration method for the transient analysis.
///
/// # Examples
///
/// Backward Euler trades the trapezoidal rule's second-order accuracy
/// for unconditional damping — useful when start-up ringing of an
/// under-damped circuit is itself the problem being debugged:
///
/// ```
/// use clocksense_spice::{IntegrationMethod, SimOptions};
///
/// let opts = SimOptions {
///     method: IntegrationMethod::BackwardEuler,
///     ..SimOptions::default()
/// };
/// assert!(opts.validate().is_ok());
/// assert_eq!(SimOptions::default().method, IntegrationMethod::Trapezoidal);
/// ```
/// Linear-solver backend used by every Newton iteration.
///
/// Both backends produce the same solutions (the test suite enforces
/// agreement to 1e-9 on well-conditioned MNA systems); they differ in how
/// the factorisation cost scales with circuit size:
///
/// * [`Dense`](SolverKind::Dense) — row-major LU with partial pivoting,
///   O(n³) per factorisation; the reference implementation.
/// * [`Sparse`](SolverKind::Sparse) — CSR LU over a one-time symbolic
///   analysis ([`Symbolic`](crate::Symbolic)): a fill-reducing ordering
///   and fixed fill pattern computed from the circuit's stamp topology,
///   after which every Newton iteration is a numeric-only refactor. Wins
///   on large RC networks (clock trees of hundreds of nodes), and even
///   on the paper's sensor transient (160 fF, τ = 100 ps, `tstep` 2 ps)
///   it measured 22 % faster than dense, in fixed and adaptive pacing
///   alike, on a 2-vCPU x86-64 VM. Same-topology variants (fault
///   campaigns, Monte-Carlo samples, batch lanes) share the analysis
///   through a [`SymbolicCache`](crate::SymbolicCache).
///
/// # Examples
///
/// ```
/// use clocksense_spice::{SimOptions, SolverKind};
///
/// let opts = SimOptions {
///     solver: SolverKind::Sparse,
///     ..SimOptions::default()
/// };
/// assert!(opts.validate().is_ok());
/// assert_eq!(SimOptions::default().solver, SolverKind::Dense);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Dense LU with partial pivoting — the reference implementation.
    #[default]
    Dense,
    /// CSR LU with a cached symbolic structure (numeric-only refactors).
    Sparse,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Trapezoidal rule, with a backward-Euler step after DC and after each
    /// source breakpoint to damp the trapezoidal start-up ringing. This is
    /// the default and matches common SPICE practice.
    #[default]
    Trapezoidal,
    /// Backward Euler throughout: more damping, first-order accurate.
    BackwardEuler,
}

/// Transient time-step control strategy.
///
/// [`Fixed`](TimestepControl::Fixed) marches at the base
/// [`tstep`](SimOptions::tstep) (halving only on non-convergence) and is
/// the golden reference: its accepted time grid — and therefore every
/// sampled waveform — is bit-identical across releases. `Adaptive` is the
/// opt-in local-truncation-error (LTE) controller: after every accepted
/// step a divided-difference LTE estimate per node decides whether the
/// next step grows or shrinks inside `[tstep_min, tstep_max]`, steps whose
/// LTE overshoots are rejected and retried smaller, and source
/// breakpoints (PWL corners, clock edges) still clamp the step so edges
/// are never stepped over. Each Newton solve is warm-started from a
/// polynomial predictor extrapolating the previous solutions.
///
/// # Examples
///
/// ```
/// use clocksense_spice::{SimOptions, TimestepControl};
///
/// // Default: the fixed-step golden reference.
/// assert_eq!(SimOptions::default().timestep, TimestepControl::Fixed);
///
/// // Opt in to adaptive stepping: up to 50 ps steps on flat stretches,
/// // LTE held at 10x the Newton tolerances.
/// let opts = SimOptions {
///     timestep: TimestepControl::Adaptive {
///         tstep_max: 50e-12,
///         lte_tol: 10.0,
///     },
///     ..SimOptions::default()
/// };
/// assert!(opts.validate().is_ok());
///
/// // tstep_max below the base tstep is rejected by name.
/// let bad = SimOptions {
///     timestep: TimestepControl::Adaptive {
///         tstep_max: 0.5e-12,
///         lte_tol: 10.0,
///     },
///     ..SimOptions::default()
/// };
/// assert!(bad.validate().unwrap_err().to_string().contains("tstep_max"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TimestepControl {
    /// Fixed stepping at [`SimOptions::tstep`] — the golden reference.
    #[default]
    Fixed,
    /// LTE-controlled variable stepping with predictor warm starts.
    Adaptive {
        /// Largest step the controller may grow to (s). Must be at least
        /// [`SimOptions::tstep`], which doubles as the initial step and
        /// the restart step after every source breakpoint.
        tstep_max: f64,
        /// Multiplier on the Newton tolerances forming the per-node LTE
        /// target `lte_tol · (VNTOL + RELTOL · |v|)` ([`VNTOL`],
        /// [`RELTOL`]). Larger values take longer steps at the price of
        /// local accuracy; `1.0` holds the truncation error at the solver
        /// tolerances themselves.
        lte_tol: f64,
    },
}

/// Controls for DC and transient analyses.
///
/// The convergence tolerances are fixed at the Berkeley SPICE defaults
/// ([`RELTOL`], [`VNTOL`], [`ABSTOL`], [`GMIN`]); the default base time
/// step of 1 ps suits the sub-nanosecond edges of the paper's
/// experiments.
///
/// Field interplay worth knowing:
///
/// * A Newton update is accepted when every node voltage moved by less
///   than `VNTOL + RELTOL · |v|` (branch currents use `ABSTOL` in place
///   of `VNTOL`), within at most `max_newton_iters` iterations, each
///   node-voltage update clamped to `newton_damping`. The
///   `spice.newton_iters_per_solve` telemetry histogram shows how much
///   of the budget solves use.
/// * `tstep` is the *base* transient step; on non-convergence the step
///   is halved repeatedly until it would drop below `tstep_min`, at
///   which point the analysis fails with
///   [`NonConvergence`](SpiceError::NonConvergence). With
///   [`TimestepControl::Adaptive`] it is also the initial step and the
///   restart step after every source breakpoint, while the
///   local-truncation-error controller grows and shrinks the running
///   step inside `[tstep_min, tstep_max]` between breakpoints.
/// * The continuation ladders (DC gmin stepping, the transient rescue
///   ladder's gmin ramp) start from large conductances but accept only
///   a solve at [`GMIN`], so a rescued point is a true solution.
///
/// # Examples
///
/// ```
/// use clocksense_spice::SimOptions;
///
/// let opts = SimOptions {
///     tstep: 0.5e-12,
///     ..SimOptions::default()
/// };
/// assert!(opts.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Maximum Newton iterations per solve point.
    pub max_newton_iters: usize,
    /// Base transient time step (s).
    pub tstep: f64,
    /// Smallest time step the step-halving control may reach before giving
    /// up with [`SpiceError::NonConvergence`].
    ///
    /// [`SpiceError::NonConvergence`]: crate::SpiceError::NonConvergence
    pub tstep_min: f64,
    /// Integration method.
    pub method: IntegrationMethod,
    /// Transient time-step control: fixed-grid reference (default) or
    /// LTE-controlled adaptive stepping. See [`TimestepControl`].
    pub timestep: TimestepControl,
    /// Linear-solver backend for every Newton iteration.
    pub solver: SolverKind,
    /// Largest per-iteration Newton voltage update (V); larger updates are
    /// clamped, which tames the quadratic Level-1 characteristics.
    pub newton_damping: f64,
    /// Enables the transient convergence **rescue ladder**: when a step
    /// fails Newton even at `tstep_min`, the engine escalates through a
    /// local gmin ramp at the failing timepoint and a trapezoidal →
    /// backward-Euler downgrade before reporting
    /// [`NonConvergence`](SpiceError::NonConvergence). The ladder is a
    /// strict no-op whenever plain Newton succeeds — with it enabled
    /// (the default), healthy circuits produce bit-identical results —
    /// so the only reason to turn it off is to *measure* what it saves
    /// (the `campaign_torture` bench does exactly that).
    pub rescue: bool,
    /// Cooperative soft deadline: when set, the Newton and transient
    /// inner loops poll the token and abandon the analysis with
    /// [`DeadlineExceeded`](SpiceError::DeadlineExceeded) once it
    /// expires or is cancelled. `None` (the default) never interrupts.
    ///
    /// This is the per-item stall guard of batched drivers: a campaign
    /// hands each fault its own [`Deadline`] so one pathological faulted
    /// netlist cannot hold a worker hostage.
    pub deadline: Option<Deadline>,
    /// Batch width of the many-variant kernel
    /// ([`transient_batch`](crate::transient_batch)): up to this many
    /// same-topology circuit variants are packed into one batch sharing a
    /// single symbolic structure and baseline stamp. `0` or `1` (the
    /// default is `0`) disables batching, and `transient_batch` then runs
    /// every variant on the scalar cached path.
    ///
    /// Only `transient_batch` reads this field. Every other entry point,
    /// and every driver built on them (the fault campaign, the
    /// Monte-Carlo scatter), solves one circuit at a time whatever the
    /// width; a caller gets lanes by calling `transient_batch` itself.
    ///
    /// Batching requires the [`Sparse`](SolverKind::Sparse) solver and
    /// the [`Fixed`](TimestepControl::Fixed) timestep control
    /// ([`batching`](SimOptions::batching)); other combinations validate
    /// fine but fall back to the scalar path variant by variant (see
    /// `DESIGN.md` §3.5 for the exact fallback conditions).
    ///
    /// Internally the kernel packs variants into SIMD-width lane blocks
    /// of [`LANE_WIDTH`](crate::LANE_WIDTH) (= 8) value planes, so batch
    /// widths that are multiples of 8 waste no padding lanes.
    ///
    /// ```
    /// use clocksense_spice::{SimOptions, SolverKind};
    ///
    /// assert_eq!(SimOptions::default().batch, 0); // scalar by default
    /// let opts = SimOptions {
    ///     solver: SolverKind::Sparse,
    ///     batch: 8,
    ///     ..SimOptions::default()
    /// };
    /// assert!(opts.validate().is_ok());
    /// ```
    pub batch: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_newton_iters: 100,
            tstep: 1e-12,
            tstep_min: 1e-16,
            method: IntegrationMethod::default(),
            timestep: TimestepControl::default(),
            solver: SolverKind::default(),
            newton_damping: 2.0,
            rescue: true,
            deadline: None,
            batch: 0,
        }
    }
}

impl SimOptions {
    /// Whether [`transient_batch`](crate::transient_batch) packs variants
    /// into the lockstep lane kernel under these options: a
    /// [`batch`](SimOptions::batch) of at least 2, the
    /// [`Sparse`](SolverKind::Sparse) solver and the
    /// [`Fixed`](TimestepControl::Fixed) timestep control. Otherwise every
    /// variant runs the scalar path.
    ///
    /// ```
    /// use clocksense_spice::{SimOptions, SolverKind, TimestepControl};
    ///
    /// let sparse = SimOptions { solver: SolverKind::Sparse, batch: 8, ..SimOptions::default() };
    /// assert!(sparse.batching());
    /// assert!(!SimOptions { batch: 8, ..SimOptions::default() }.batching()); // dense
    /// let adaptive = TimestepControl::Adaptive { tstep_max: 10e-12, lte_tol: 1.0 };
    /// assert!(!SimOptions { timestep: adaptive, ..sparse }.batching());
    /// ```
    #[must_use]
    pub fn batching(&self) -> bool {
        self.batch >= 2
            && self.solver == SolverKind::Sparse
            && matches!(self.timestep, TimestepControl::Fixed)
    }

    /// Checks that every option lies in its valid domain.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidOption`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), SpiceError> {
        let positive = [
            ("tstep", self.tstep),
            ("tstep_min", self.tstep_min),
            ("newton_damping", self.newton_damping),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(SpiceError::InvalidOption(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        if self.max_newton_iters < 2 {
            return Err(SpiceError::InvalidOption(
                "max_newton_iters must be at least 2".to_string(),
            ));
        }
        if self.tstep_min > self.tstep {
            return Err(SpiceError::InvalidOption(
                "tstep_min must not exceed tstep".to_string(),
            ));
        }
        if let TimestepControl::Adaptive { tstep_max, lte_tol } = self.timestep {
            for (name, v) in [("tstep_max", tstep_max), ("lte_tol", lte_tol)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpiceError::InvalidOption(format!(
                        "{name} must be finite and positive, got {v}"
                    )));
                }
            }
            if tstep_max < self.tstep {
                return Err(SpiceError::InvalidOption(
                    "tstep_max must be at least the base tstep".to_string(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimOptions::default().validate().unwrap();
    }

    #[test]
    fn bad_options_are_named() {
        let o = SimOptions {
            tstep: -1.0,
            ..SimOptions::default()
        };
        let err = o.validate().unwrap_err();
        assert!(err.to_string().contains("tstep"));

        let o = SimOptions {
            max_newton_iters: 1,
            ..SimOptions::default()
        };
        assert!(o.validate().is_err());

        let o = SimOptions {
            tstep_min: 1.0,
            ..SimOptions::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn default_method_is_trapezoidal() {
        assert_eq!(SimOptions::default().method, IntegrationMethod::Trapezoidal);
    }

    #[test]
    fn default_timestep_control_is_fixed() {
        assert_eq!(SimOptions::default().timestep, TimestepControl::Fixed);
    }

    #[test]
    fn batch_defaults_off_and_any_width_validates() {
        assert_eq!(SimOptions::default().batch, 0);
        let wide = SimOptions {
            batch: 64,
            ..SimOptions::default()
        };
        assert!(wide.validate().is_ok());
    }

    #[test]
    fn rescue_defaults_on_and_deadline_defaults_off() {
        let opts = SimOptions::default();
        assert!(opts.rescue);
        assert!(opts.deadline.is_none());
        let with_deadline = SimOptions {
            deadline: Some(Deadline::manual()),
            ..SimOptions::default()
        };
        assert!(with_deadline.validate().is_ok());
    }

    #[test]
    fn adaptive_options_are_validated() {
        let ok = SimOptions {
            timestep: TimestepControl::Adaptive {
                tstep_max: 100e-12,
                lte_tol: 10.0,
            },
            ..SimOptions::default()
        };
        assert!(ok.validate().is_ok());

        let small_max = SimOptions {
            timestep: TimestepControl::Adaptive {
                tstep_max: 0.1e-12,
                lte_tol: 10.0,
            },
            ..SimOptions::default()
        };
        let err = small_max.validate().unwrap_err();
        assert!(err.to_string().contains("tstep_max"));

        let bad_tol = SimOptions {
            timestep: TimestepControl::Adaptive {
                tstep_max: 100e-12,
                lte_tol: f64::NAN,
            },
            ..SimOptions::default()
        };
        let err = bad_tol.validate().unwrap_err();
        assert!(err.to_string().contains("lte_tol"));
    }
}
