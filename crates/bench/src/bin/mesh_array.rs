//! Sensor-array decks on generated clock-mesh and TRIX-grid netlists,
//! driven in lockstep through the batched transient kernel.
//!
//! The paper's experiments monitor one wire pair per simulation. A real
//! deployment instruments *many* pairs of one distribution network at
//! once, so this bench builds the two grid families of
//! `clocksense-scenarios` — a square clock mesh (1024 grid nodes in
//! full mode, the ISSUE's >= 1k floor) and a TRIX grid — grafts a
//! sensor array onto the symmetric monitor pairs of each, and runs K
//! value-variants of every deck in lockstep through the batched
//! transient kernel. Variant 0 is the healthy deck: by symmetry every
//! sensor must read `NoError`, and that is asserted. Variants k > 0
//! starve the links around sensor 0's φ1 tap with a growing series
//! factor, so the flip counts per variant trace how much local
//! asymmetry the mesh's redundancy hides from the sensor.
//!
//! At the end of the run the bench asserts that decks were built,
//! sensors attached and verdicts classified, that the variants went
//! through the batched kernel rather than the scalar fallback, and that
//! the lane Newton iterations were counted (`spice.lu_factorizations ==
//! spice.newton_iterations >= batch.lane_slots_active`).
//! `--report <path>` archives the counters; CI re-checks the committed
//! run's `mesh_array.grid_nodes_total` (>= 1k).

use std::time::Instant;

use clocksense_bench::report::{counter, counter_at_least};
use clocksense_bench::{fast_mode, print_header, scaled, Table};
use clocksense_netlist::{Circuit, Device};
use clocksense_scenarios::{connected_to_ground, MeshSpec, ScenarioDeck, TrixSpec};
use clocksense_spice::{transient_batch, SimOptions, SolverKind, SymbolicCache};

/// A value-variant of a deck: every grid link touching sensor 0's φ1
/// tap gets its resistance scaled by `1 + 400 k` — the footprint of a
/// resistive-open defect right under the monitored wire. `k = 0` is
/// the untouched healthy deck.
fn starved_variant(deck: &ScenarioDeck, k: usize) -> Circuit {
    let mut ckt = deck.circuit.clone();
    if k == 0 {
        return ckt;
    }
    let factor = 1.0 + 400.0 * k as f64;
    let tap = deck.taps.first().expect("deck has sensors");
    let target = ckt.find_node(&tap.phi1).expect("tap node exists");
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
    assert!(!links.is_empty(), "tap {} has no grid links", tap.phi1);
    for id in links {
        if let Device::Resistor(r) = &mut ckt.device_mut(id).expect("live id").device {
            r.ohms *= factor;
        }
    }
    ckt
}

fn run_deck(
    name: &str,
    deck: &ScenarioDeck,
    width: usize,
    opts: &SimOptions,
    table: &mut Table,
) -> (u64, u64) {
    let tele = clocksense_telemetry::global().scope("mesh_array");
    assert!(connected_to_ground(&deck.circuit), "{name} deck floats");
    deck.circuit.validate().expect("generated deck validates");
    tele.counter("decks_built").incr();
    tele.counter("nodes_total").add(deck.node_count() as u64);
    tele.counter("grid_nodes_total").add(deck.grid_nodes as u64);
    tele.counter("sensors_attached").add(deck.taps.len() as u64);

    let variants: Vec<Circuit> = (0..width).map(|k| starved_variant(deck, k)).collect();
    let cache = SymbolicCache::new();
    let batch_opts = SimOptions {
        batch: width,
        ..opts.clone()
    };
    let start = Instant::now();
    let results = transient_batch(&variants, deck.sim_stop_time(), &batch_opts, &cache);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut healthy_errors = 0u64;
    let mut flips = 0u64;
    let mut verdicts_total = 0u64;
    for (k, result) in results.iter().enumerate() {
        let result = result.as_ref().expect("batched deck transient");
        let verdicts = deck.verdicts(result).expect("taps resolve in result");
        verdicts_total += verdicts.len() as u64;
        let errors = verdicts.iter().filter(|v| v.is_error()).count() as u64;
        if k == 0 {
            healthy_errors += errors;
        } else {
            flips += errors;
        }
    }
    tele.counter("verdicts_total").add(verdicts_total);
    tele.counter("healthy_errors").add(healthy_errors);
    tele.counter("verdict_flips").add(flips);
    tele.timer("deck_wall")
        .record(std::time::Duration::from_secs_f64(wall_ms / 1e3));

    table.row(&[
        name.to_string(),
        format!("{}", deck.grid_nodes),
        format!("{}", deck.node_count()),
        format!("{}", deck.taps.len()),
        format!("{width}"),
        format!("{wall_ms:.0}"),
        format!("{verdicts_total}"),
        format!("{flips}"),
    ]);
    (healthy_errors, flips)
}

fn main() {
    let bench = clocksense_bench::report::start("mesh_array");
    // The end-of-run assertions read counters, so this bench records
    // telemetry even without `--report`.
    clocksense_telemetry::global().enable();
    let width = scaled(5, 3);
    let opts = SimOptions {
        solver: SolverKind::Sparse,
        tstep: if fast_mode() { 8e-12 } else { 4e-12 },
        ..SimOptions::default()
    };

    let mesh_side = scaled(32, 10);
    let mesh = MeshSpec {
        sensors: scaled(6, 2),
        ..MeshSpec::new(mesh_side, mesh_side)
    }
    .build()
    .expect("mesh deck builds");

    let trix = TrixSpec {
        sensors: scaled(4, 2),
        ..TrixSpec::new(scaled(12, 4), scaled(24, 8))
    }
    .build()
    .expect("trix deck builds");

    print_header(&format!(
        "Sensor-array decks through the batched kernel ({mesh_side}x{mesh_side} mesh, K={width} variants)"
    ));
    let mut table = Table::new(&[
        "deck",
        "grid nodes",
        "total nodes",
        "sensors",
        "K",
        "wall [ms]",
        "verdicts",
        "flips",
    ]);

    let (mesh_healthy, _) = run_deck("mesh", &mesh, width, &opts, &mut table);
    let (trix_healthy, _) = run_deck("trix", &trix, width, &opts, &mut table);
    println!("{}", table.render());

    assert_eq!(
        mesh_healthy + trix_healthy,
        0,
        "healthy symmetric decks must read NoError on every sensor"
    );
    if !fast_mode() {
        assert!(
            mesh.grid_nodes >= 1000,
            "full-mode mesh must cross the 1k-node floor"
        );
    }
    for name in [
        "mesh_array.decks_built",
        "mesh_array.grid_nodes_total",
        "mesh_array.sensors_attached",
        "mesh_array.verdicts_total",
        "batch.batches_run",
    ] {
        counter_at_least(name, 1);
    }
    counter_at_least("batch.variants_batched", 2);
    // Every live lane of a factor sweep is one Newton iteration and one
    // LU factorisation, exactly as a scalar iteration counts.
    let newton = counter_at_least(
        "spice.newton_iterations",
        counter("batch.lane_slots_active"),
    );
    assert_eq!(
        counter("spice.lu_factorizations"),
        newton,
        "spice.lu_factorizations must equal spice.newton_iterations"
    );

    bench.finish();
}
