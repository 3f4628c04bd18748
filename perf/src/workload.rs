//! The four paper-derived workloads.
//!
//! Each workload draws a rep's inputs from `(seed, rep)`, runs them
//! through the public library calls the paper binaries make, and reduces
//! the results to golden [`Row`]s. The timed path uses the library's
//! default options, pinning only what the binary it mirrors pins, so a
//! change of `SimOptions::default()` moves the measurement. The oracle
//! path pins dense LU, fixed steps and no batching (per-variant scalar
//! sparse for the grid decks, where dense LU is out of reach), so the
//! goldens it produces do not drift when defaults flip.

use clocksense_core::{
    find_tau_min, interpret, sweep_vmin, ClockEdge, ClockPair, SensorBuilder, Technology,
};
use clocksense_faults::{run_campaign, sensor_fault_universe, CampaignConfig, DetectionOutcome};
use clocksense_montecarlo::{run_scatter, McConfig};
use clocksense_netlist::{Circuit, Device};
use clocksense_scenarios::{MeshSpec, ScenarioDeck, TrixSpec};
use clocksense_spice::{
    transient_batch, transient_cached, SimOptions, SolverKind, SymbolicCache, TimestepControl,
    TranResult,
};

use crate::golden::Row;
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4 path: V_min sweeps and τ_min bisections, one thread.
    TauSweep,
    /// §3 path: fault campaigns on the executor.
    FaultCampaign,
    /// Fig. 5 / Tab. 1 path: one Monte-Carlo scatter per rep.
    McScatter,
    /// Sensor arrays on a clock mesh and a TRIX grid through the batch kernel.
    MeshBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TauSweep,
        Workload::FaultCampaign,
        Workload::McScatter,
        Workload::MeshBatch,
    ];

    /// The name used on the command line and in golden file names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TauSweep => "tau_sweep",
            Workload::FaultCampaign => "fault_campaign",
            Workload::McScatter => "mc_scatter",
            Workload::MeshBatch => "mesh_batch",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one item is, for the output.
    pub fn item_unit(self) -> &'static str {
        match self {
            Workload::TauSweep => "configs",
            Workload::FaultCampaign => "faults",
            Workload::McScatter => "samples",
            Workload::MeshBatch => "deck-variants",
        }
    }
}

/// Problem sizes. [`Size::full`] is what the benchmark runs; the unit
/// tests use [`Size::tiny`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// `tau_sweep` configs per rep.
    pub configs: usize,
    /// Skews per `sweep_vmin` (Fig. 4 grid: 20 ps apart).
    pub skews: usize,
    /// `find_tau_min` bisection resolution (s).
    pub tau_tolerance: f64,
    /// Faults of the one campaign per rep; `None` runs the whole universe.
    pub faults: Option<usize>,
    /// `mc_scatter` samples per rep.
    pub samples: usize,
    /// Clock-mesh side and its sensor count.
    pub mesh: (usize, usize),
    /// TRIX layers, width and sensor count.
    pub trix: (usize, usize, usize),
    /// Deck variants per `transient_batch` call.
    pub variants: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            configs: 3,
            skews: 16,
            tau_tolerance: 2e-12,
            faults: None,
            samples: 80,
            mesh: (32, 6),
            trix: (12, 24, 4),
            variants: 4,
        }
    }

    /// Smallest sizes that still run every call of every workload.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            configs: 1,
            skews: 2,
            tau_tolerance: 50e-12,
            faults: Some(3),
            samples: 3,
            mesh: (4, 2),
            trix: (3, 6, 1),
            variants: 3,
        }
    }
}

/// Which options a rep runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Library defaults, pinned only where the mirrored binary pins them.
    Timed,
    /// Dense LU, fixed steps, no batching; per-variant scalar sparse for
    /// the grid decks.
    Oracle,
}

/// SplitMix64: the inputs of `(workload, seed, rep)`, independent of any
/// library RNG so they cannot change under the benchmark's feet.
#[derive(Debug, Clone)]
pub struct Inputs(u64);

impl Inputs {
    /// The input stream of one rep.
    pub fn new(workload: Workload, seed: u64, rep: u64) -> Inputs {
        let tag = workload
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(0x100_0000_01b3) ^ u64::from(b));
        let mut s = Inputs(seed ^ 0x5eed_c10c_5e45_0000);
        let a = s.next_u64();
        Inputs(a ^ rep.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ tag)
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` draws, one from each of `n` equal strata of `[lo, hi)`, in
    /// random order. A rep then covers the range evenly, which keeps the
    /// cost of one rep close to that of the next.
    pub fn strata(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let width = (hi - lo) / n as f64;
        let mut v: Vec<f64> = (0..n)
            .map(|k| {
                let start = lo + k as f64 * width;
                self.uniform(start, start + width)
            })
            .collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }
}

/// One `tau_sweep` config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Output load (F).
    pub load: f64,
    /// Clock slew (s).
    pub slew: f64,
}

/// One `fault_campaign` sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSensor {
    /// Output load (F).
    pub load: f64,
    /// Clock slew (s).
    pub slew: f64,
    /// Bridge resistance of the fault universe (Ω).
    pub bridge_ohms: f64,
}

/// One starved deck variant: grid links around one sensor tap get their
/// resistance multiplied (a resistive open under the monitored wire).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Starve {
    /// Sensor whose tap is starved.
    pub tap: usize,
    /// `true` starves the φ2 tap, `false` the φ1 tap.
    pub phi2: bool,
    /// Resistance multiplier.
    pub factor: f64,
}

/// A rep's inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum RepInput {
    /// `tau_sweep` configs.
    Sweep(Vec<SweepConfig>),
    /// `fault_campaign`: the sensor of the rep's one campaign.
    Campaign(CampaignSensor),
    /// `mc_scatter`: load and the scatter's master seed.
    Scatter {
        /// Output load (F).
        load: f64,
        /// `McConfig::seed`.
        seed: u64,
    },
    /// `mesh_batch`: per deck, variant 0 healthy and the rest starved.
    Decks(Vec<Vec<Option<Starve>>>),
}

const LOAD_RANGE: (f64, f64) = (80e-15, 240e-15);
const SLEW_RANGE: (f64, f64) = (0.1e-9, 0.4e-9);
/// ±25 % around the §3 campaign's 0.2 ns. The slew sets the clock period
/// and so the simulated time of every fault; the full Fig. 4 range would
/// swing the cost of a one-campaign rep by a quarter.
const CAMPAIGN_SLEW_RANGE: (f64, f64) = (0.15e-9, 0.25e-9);

/// What set-up builds once per run: the technology and, for
/// `mesh_batch`, the two scenario decks.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Workload the fixture serves.
    pub workload: Workload,
    /// Problem sizes.
    pub size: Size,
    /// Worker threads for the executor workloads.
    pub threads: usize,
    tech: Technology,
    decks: Vec<(&'static str, ScenarioDeck)>,
}

/// Results of one rep, reduced for the checker.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOutput {
    /// Items the rep ran.
    pub items: usize,
    /// Items whose call returned an error or no verdict.
    pub failed: usize,
    /// Outputs to check.
    pub rows: Vec<Row>,
    /// Items failing a check that needs no golden (healthy decks must
    /// read `NoError` on every sensor).
    pub invariant_errors: usize,
}

impl Fixture {
    /// Builds the fixture (spanned, so `scenarios.build` shows in set-up).
    ///
    /// # Errors
    ///
    /// Reports a deck that fails to build.
    pub fn build(
        workload: Workload,
        size: Size,
        threads: usize,
        tracer: &Tracer,
    ) -> Result<Fixture, String> {
        let mut decks = Vec::new();
        if workload == Workload::MeshBatch {
            let (side, sensors) = size.mesh;
            let (layers, width, trix_sensors) = size.trix;
            let mesh = tracer.span("scenarios.build", || {
                MeshSpec {
                    sensors,
                    ..MeshSpec::new(side, side)
                }
                .build()
            });
            let trix = tracer.span("scenarios.build", || {
                TrixSpec {
                    sensors: trix_sensors,
                    ..TrixSpec::new(layers, width)
                }
                .build()
            });
            decks.push(("mesh", mesh.map_err(|e| format!("mesh deck: {e}"))?));
            decks.push(("trix", trix.map_err(|e| format!("trix deck: {e}"))?));
        }
        Ok(Fixture {
            workload,
            size,
            threads,
            tech: Technology::cmos12(),
            decks,
        })
    }

    /// Draws the inputs of `(seed, rep)`.
    pub fn inputs(&self, seed: u64, rep: u64) -> RepInput {
        let mut rng = Inputs::new(self.workload, seed, rep);
        let (n_lo, n_hi) = LOAD_RANGE;
        let (s_lo, s_hi) = SLEW_RANGE;
        match self.workload {
            Workload::TauSweep => {
                let n = self.size.configs;
                let (loads, slews) = (rng.strata(n, n_lo, n_hi), rng.strata(n, s_lo, s_hi));
                RepInput::Sweep(
                    loads
                        .into_iter()
                        .zip(slews)
                        .map(|(load, slew)| SweepConfig { load, slew })
                        .collect(),
                )
            }
            Workload::FaultCampaign => RepInput::Campaign(CampaignSensor {
                load: rng.uniform(n_lo, n_hi),
                slew: rng.uniform(CAMPAIGN_SLEW_RANGE.0, CAMPAIGN_SLEW_RANGE.1),
                bridge_ohms: [100.0, 300.0, 1000.0][rng.below(3)],
            }),
            Workload::McScatter => RepInput::Scatter {
                load: rng.uniform(n_lo, n_hi),
                seed: rng.next_u64(),
            },
            Workload::MeshBatch => RepInput::Decks(
                self.decks
                    .iter()
                    .map(|(_, deck)| {
                        (0..self.size.variants)
                            .map(|k| {
                                (k > 0).then(|| Starve {
                                    tap: rng.below(deck.taps.len()),
                                    phi2: rng.below(2) == 1,
                                    factor: rng.uniform(100.0, 5000.0),
                                })
                            })
                            .collect()
                    })
                    .collect(),
            ),
        }
    }

    /// Runs one rep on `path`.
    pub fn run(&self, input: &RepInput, path: Path, tracer: &Tracer) -> RepOutput {
        match input {
            RepInput::Sweep(configs) => self.tau_sweep(configs, path, tracer),
            RepInput::Campaign(sensor) => self.fault_campaign(sensor, path, tracer),
            RepInput::Scatter { load, seed } => self.mc_scatter(*load, *seed, path, tracer),
            RepInput::Decks(decks) => self.mesh_batch(decks, path, tracer),
        }
    }

    /// The Fig. 4 options (`tstep` 2 ps), or their oracle twin.
    fn paper_options(path: Path) -> SimOptions {
        let timed = SimOptions {
            tstep: 2e-12,
            ..SimOptions::default()
        };
        match path {
            Path::Timed => timed,
            Path::Oracle => oracle(timed),
        }
    }

    fn tau_sweep(&self, configs: &[SweepConfig], path: Path, tracer: &Tracer) -> RepOutput {
        let opts = Self::paper_options(path);
        let skews: Vec<f64> = (0..self.size.skews).map(|i| i as f64 * 0.02e-9).collect();
        let mut out = RepOutput::new(configs.len());
        for (k, c) in configs.iter().enumerate() {
            let sensor = tracer.span("core.build", || {
                SensorBuilder::new(self.tech)
                    .load_capacitance(c.load)
                    .build()
            });
            let clocks = ClockPair::single_shot(self.tech.vdd, c.slew);
            let result = sensor.map_err(|e| e.to_string()).and_then(|sensor| {
                let curve = tracer.span("core.sweep_vmin", || {
                    sweep_vmin(&sensor, &clocks, &skews, &opts)
                });
                let tau = tracer.span("core.find_tau_min", || {
                    find_tau_min(&sensor, &clocks, 0.6e-9, self.size.tau_tolerance, &opts)
                });
                curve
                    .and_then(|c| tau.map(|t| (c, t)))
                    .map_err(|e| e.to_string())
            });
            match result {
                Ok((curve, tau)) => {
                    for (i, p) in curve.iter().enumerate() {
                        out.rows.push(
                            Row::new(k, format!("c{k}/t{i}"))
                                .num("vmin", p.vmin)
                                .text("detected", u8::from(p.detected)),
                        );
                    }
                    let row = Row::new(k, format!("c{k}"));
                    out.rows.push(match tau {
                        Some(t) => row.num("tau_min", t),
                        None => row.text("tau_min", "none"),
                    });
                }
                Err(e) => out.fail(k, format!("c{k}"), &e),
            }
        }
        out
    }

    fn fault_campaign(&self, s: &CampaignSensor, path: Path, tracer: &Tracer) -> RepOutput {
        let sensor = tracer.span("core.build", || {
            SensorBuilder::new(self.tech)
                .load_capacitance(s.load)
                .build()
        });
        let sensor = match sensor {
            Ok(sensor) => sensor,
            Err(e) => {
                let mut out = RepOutput::new(1);
                out.fail(0, "sensor".to_string(), &e.to_string());
                return out;
            }
        };
        let mut faults = tracer.span("faults.universe", || {
            sensor_fault_universe(&sensor, s.bridge_ohms)
        });
        if let Some(n) = self.size.faults {
            faults.truncate(n);
        }
        let mut cfg = CampaignConfig::new(ClockPair::single_shot(self.tech.vdd, s.slew));
        cfg.threads = self.threads;
        if path == Path::Oracle {
            cfg.sim = oracle(cfg.sim);
        }
        let mut out = RepOutput::new(faults.len());
        match tracer.span("faults.run_campaign", || {
            run_campaign(&sensor, &faults, &cfg)
        }) {
            Ok(result) => {
                for (i, r) in result.records().iter().enumerate() {
                    if r.outcome == DetectionOutcome::Inconclusive {
                        out.failed += 1;
                    }
                    let masks = match r.masks_skew {
                        Some(true) => "yes",
                        Some(false) => "no",
                        None => "-",
                    };
                    let row = Row::new(i, r.fault.id()).text("outcome", format!("{:?}", r.outcome));
                    let row = match r.iddq {
                        Some(iddq) => row.num("iddq", iddq),
                        None => row.text("iddq", "-"),
                    };
                    out.rows.push(row.text("masks", masks));
                }
            }
            Err(e) => {
                out.failed += faults.len().saturating_sub(1);
                out.fail(0, "campaign".to_string(), &e.to_string());
            }
        }
        out
    }

    fn mc_scatter(&self, load: f64, seed: u64, path: Path, tracer: &Tracer) -> RepOutput {
        // The Fig. 5 skew grid: 0..=240 ps in 30 ps steps.
        let skews: Vec<f64> = (0..=8).map(|i| i as f64 * 0.03e-9).collect();
        let builder = SensorBuilder::new(self.tech).load_capacitance(load);
        let clocks = ClockPair::single_shot(self.tech.vdd, 0.2e-9);
        let mut cfg = McConfig {
            samples: self.size.samples,
            seed,
            threads: self.threads,
            ..McConfig::default()
        };
        if path == Path::Oracle {
            cfg.sim = oracle(cfg.sim);
        }
        let mut out = RepOutput::new(cfg.samples);
        match tracer.span("montecarlo.run_scatter", || {
            run_scatter(&builder, &clocks, &skews, &cfg)
        }) {
            Ok(samples) => {
                for (i, s) in samples.iter().enumerate() {
                    out.rows.push(
                        Row::new(i, format!("i{i}"))
                            .num("vmin", s.vmin)
                            .text("detected", u8::from(s.detected)),
                    );
                }
            }
            Err(e) => {
                out.failed += cfg.samples.saturating_sub(1);
                out.fail(0, "scatter".to_string(), &e.to_string());
            }
        }
        out
    }

    fn mesh_batch(&self, decks: &[Vec<Option<Starve>>], path: Path, tracer: &Tracer) -> RepOutput {
        // The mesh_array options: sparse LU, 4 ps steps, the deck count as
        // batch width.
        let timed = SimOptions {
            solver: SolverKind::Sparse,
            tstep: 4e-12,
            batch: self.size.variants,
            ..SimOptions::default()
        };
        let mut out = RepOutput::new(0);
        for ((name, deck), starves) in self.decks.iter().zip(decks) {
            let variants: Vec<Circuit> = tracer.span("netlist.variants", || {
                starves.iter().map(|s| starved(deck, *s)).collect()
            });
            let t_stop = deck.sim_stop_time();
            let results: Vec<Result<TranResult, String>> = match path {
                Path::Timed => tracer.span("batch.transient_batch", || {
                    transient_batch(&variants, t_stop, &timed, &SymbolicCache::new())
                        .into_iter()
                        .map(|r| r.map_err(|e| e.to_string()))
                        .collect()
                }),
                Path::Oracle => {
                    let opts = SimOptions {
                        solver: SolverKind::Sparse,
                        timestep: TimestepControl::Fixed,
                        batch: 0,
                        ..timed.clone()
                    };
                    let cache = SymbolicCache::new();
                    variants
                        .iter()
                        .map(|v| {
                            transient_cached(v, t_stop, &opts, &cache).map_err(|e| e.to_string())
                        })
                        .collect()
                }
            };
            let v_th = deck.tech.logic_threshold();
            tracer.span("scenarios.verdicts", || {
                for (k, result) in results.iter().enumerate() {
                    let item = out.items + k;
                    let key = format!("{name}/v{k}");
                    let result = match result {
                        Ok(r) => r,
                        Err(e) => {
                            out.fail(item, key, e);
                            continue;
                        }
                    };
                    let mut healthy_flagged = false;
                    for (j, tap) in deck.taps.iter().enumerate() {
                        let waves = result
                            .waveform_named(&tap.y1)
                            .zip(result.waveform_named(&tap.y2));
                        let Some((y1, y2)) = waves else {
                            out.fail(item, format!("{key}/s{j}"), "tap output missing");
                            continue;
                        };
                        let r = interpret(y1, y2, &deck.clocks, ClockEdge::Rising, v_th);
                        // By symmetry a healthy deck reads NoError everywhere.
                        healthy_flagged |= starves[k].is_none() && r.verdict.is_error();
                        out.rows.push(
                            Row::new(item, format!("{key}/s{j}"))
                                .text("verdict", format!("{:?}", r.verdict))
                                .num("vmin1", r.vmin_y1)
                                .num("vmin2", r.vmin_y2),
                        );
                    }
                    out.invariant_errors += usize::from(healthy_flagged);
                }
            });
            out.items += results.len();
        }
        out
    }
}

impl RepOutput {
    fn new(items: usize) -> RepOutput {
        RepOutput {
            items,
            failed: 0,
            rows: Vec::new(),
            invariant_errors: 0,
        }
    }

    /// Records a failed item as a row the golden cannot match.
    fn fail(&mut self, item: usize, key: String, error: &str) {
        self.failed += 1;
        let error = error.replace(['\t', '\n'], " ");
        self.rows.push(Row::new(item, key).text("error", error));
    }
}

/// `opts` with the oracle choices pinned.
fn oracle(opts: SimOptions) -> SimOptions {
    SimOptions {
        solver: SolverKind::Dense,
        timestep: TimestepControl::Fixed,
        batch: 0,
        ..opts
    }
}

/// The deck with every grid link touching the starved tap node scaled
/// by the factor (the `mesh_array` recipe); `None` is the healthy deck.
fn starved(deck: &ScenarioDeck, starve: Option<Starve>) -> Circuit {
    let mut ckt = deck.circuit.clone();
    let Some(s) = starve else {
        return ckt;
    };
    let tap = &deck.taps[s.tap];
    let node = if s.phi2 { &tap.phi2 } else { &tap.phi1 };
    let Some(target) = ckt.find_node(node) else {
        return ckt;
    };
    let links: Vec<_> = ckt
        .devices()
        .filter_map(|(id, entry)| match &entry.device {
            Device::Resistor(r)
                if entry.name.starts_with('r')
                    && !entry.name.starts_with("rdrv")
                    && (r.a == target || r.b == target) =>
            {
                Some(id)
            }
            _ => None,
        })
        .collect();
    for id in links {
        if let Some(entry) = ckt.device_mut(id) {
            if let Device::Resistor(r) = &mut entry.device {
                r.ohms *= s.factor;
            }
        }
    }
    ckt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_seed_and_rep() {
        let tracer = Tracer::new();
        for w in Workload::ALL {
            let f = Fixture::build(w, Size::tiny(), 1, &tracer).unwrap();
            assert_eq!(f.inputs(7, 3), f.inputs(7, 3), "{w:?}: same (seed, rep)");
            assert_ne!(f.inputs(7, 3), f.inputs(7, 4), "{w:?}: rep changes inputs");
            assert_ne!(f.inputs(7, 3), f.inputs(8, 3), "{w:?}: seed changes inputs");
        }
        let mut a = Inputs::new(Workload::TauSweep, 1, 0);
        for _ in 0..1000 {
            let x = a.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            assert!(a.below(3) < 3);
        }
    }

    #[test]
    fn tiny_runs_of_every_workload_repeat_exactly() {
        let tracer = Tracer::new();
        for w in Workload::ALL {
            let f = Fixture::build(w, Size::tiny(), 2, &tracer).unwrap();
            let input = f.inputs(1, 1);
            let a = f.run(&input, Path::Timed, &tracer);
            let b = f.run(&input, Path::Timed, &tracer);
            assert_eq!(a, b, "{w:?} is deterministic");
            assert!(a.items > 0 && !a.rows.is_empty(), "{w:?} ran");
            assert_eq!(a.failed, 0, "{w:?}: {:?}", a.rows);
            assert_eq!(a.invariant_errors, 0, "{w:?}");
            // Today's defaults are the oracle choices, so the timed path
            // must agree with the oracle within tolerance.
            let mut tally = crate::golden::Tally::default();
            tally.check(1, &f.run(&input, Path::Oracle, &tracer).rows, &a.rows);
            assert_eq!(tally.check_errors(), 0, "{w:?}: {:?}", tally.notes);
        }
    }
}
