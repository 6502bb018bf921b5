//! Golden-trace regression tests for the observability layer.
//!
//! Five canonical scenarios — the healthy end-to-end run, the shrunk
//! device-stall chaos trial and the stage → verify → commit → drain online
//! reconfiguration from `ioguard_core::observe`, the fleet placement run
//! and the serving scenario — are rendered to text and compared
//! **byte-for-byte** against goldens committed under `tests/goldens/`, and
//! so is the JSON snapshot that `trace-export` writes
//! (`ioguard_core::observe::snapshot_json`). Each one additionally runs as
//! a batch of eight identical trials through the work-stealing engine at
//! one and at eight worker threads: every copy must produce the same bytes,
//! which pins down the thread-count independence of the whole observed
//! pipeline (fault plans, hypervisor, NoC, trace sinks).
//!
//! After an *intentional* trace change, regenerate the goldens with
//!
//! ```text
//! cargo test -p ioguard-integration-tests --test golden_traces -- --ignored bless
//! ```
//!
//! and review the diff like any other code change.

use ioguard_core::engine::run_indexed;
use ioguard_core::observe::{
    chaos_observed, end_to_end_observed, reconfig_observed, render_reconfig_trace, render_trace,
    snapshot_json,
};

/// The pinned seed the goldens were generated with.
const SEED: u64 = 0xD1CE;

const GOLDEN_END_TO_END: &str = include_str!("../goldens/end_to_end.trace");
const GOLDEN_CHAOS: &str = include_str!("../goldens/chaos.trace");
const GOLDEN_RECONFIG: &str = include_str!("../goldens/reconfig.trace");
const GOLDEN_FLEET: &str = include_str!("../goldens/fleet.trace");
const GOLDEN_SERVE: &str = include_str!("../goldens/serve.trace");
const GOLDEN_OBS_SNAPSHOT: &str = include_str!("../goldens/obs_snapshot.json");

fn end_to_end_trace(seed: u64) -> String {
    let run = end_to_end_observed(seed);
    assert_eq!(run.hv_obs.sink.dropped(), 0, "hv sink must not evict");
    assert_eq!(run.noc_sink.dropped(), 0, "noc sink must not evict");
    render_trace(&run.hv_obs.sink, &run.noc_sink)
}

fn chaos_trace(seed: u64) -> String {
    let trial = chaos_observed(seed);
    assert_eq!(trial.hv_obs.sink.dropped(), 0, "hv sink must not evict");
    assert_eq!(trial.noc_sink.dropped(), 0, "noc sink must not evict");
    render_trace(&trial.hv_obs.sink, &trial.noc_sink)
}

fn reconfig_trace(seed: u64) -> String {
    let run = reconfig_observed(seed);
    assert_eq!(
        run.reconfig_sink.dropped(),
        0,
        "reconfig sink must not evict"
    );
    for sink in &run.epoch_sinks {
        assert_eq!(sink.dropped(), 0, "epoch sink must not evict");
    }
    assert!(run.totals.conserved(), "{:?}", run.totals);
    render_reconfig_trace(&run)
}

/// The pinned 3-shard, 1 000-arrival fleet placement run. The inner run
/// already exercises the probe fan-out; the outer `assert_matches_golden`
/// additionally replays it as a batch at 1 and 8 engine threads.
fn fleet_trace(seed: u64) -> String {
    ioguard_fleet::canonical_run(seed, 1).expect("canonical fleet run")
}

/// Same scenario with the probe fan-out itself running on 8 threads —
/// must render the same bytes as the single-threaded run.
fn fleet_trace_mt(seed: u64) -> String {
    ioguard_fleet::canonical_run(seed, 8).expect("canonical fleet run")
}

/// The canonical serving scenario (scripted clients, a babbler, device
/// stall, mode changes) rendered through the serve trace sink. The
/// scenario pins its own seed; the engine batch in
/// `assert_matches_golden` still replays it 8× at 1 and 8 threads.
fn serve_trace(_seed: u64) -> String {
    let outcome = ioguard_serve::replay::canonical_scenario(1);
    assert!(
        outcome.fold_matches_live,
        "serve: counter fold of the trace must reproduce the live registry"
    );
    outcome.trace
}

/// Same scenario with frame decoding fanned out over 8 workers — the
/// serve loop must render the same bytes.
fn serve_trace_mt(_seed: u64) -> String {
    ioguard_serve::replay::canonical_scenario(8).trace
}

fn assert_matches_golden(golden: &str, name: &str, render: impl Fn(u64) -> String + Sync) {
    assert!(
        !golden.is_empty(),
        "{name}: golden file is empty — bless it first (see module docs)"
    );
    let items = vec![SEED; 8];
    for threads in [1usize, 8] {
        let (traces, _) = run_indexed(threads, &items, |_, &s| render(s));
        for (i, t) in traces.iter().enumerate() {
            assert!(
                t.as_str() == golden,
                "{name}: trial {i} at {threads} thread(s) diverged from the \
                 committed golden — if the trace change is intentional, bless \
                 new goldens (see module docs)"
            );
        }
    }
}

#[test]
fn end_to_end_trace_matches_golden_at_any_thread_count() {
    assert_matches_golden(GOLDEN_END_TO_END, "end_to_end", end_to_end_trace);
}

#[test]
fn chaos_trace_matches_golden_at_any_thread_count() {
    assert_matches_golden(GOLDEN_CHAOS, "chaos", chaos_trace);
}

#[test]
fn reconfig_trace_matches_golden_at_any_thread_count() {
    assert_matches_golden(GOLDEN_RECONFIG, "reconfig", reconfig_trace);
}

#[test]
fn fleet_trace_matches_golden_at_any_thread_count() {
    assert_matches_golden(GOLDEN_FLEET, "fleet", fleet_trace);
    assert_matches_golden(GOLDEN_FLEET, "fleet-mt", fleet_trace_mt);
}

#[test]
fn serve_trace_matches_golden_at_any_thread_count() {
    assert_matches_golden(GOLDEN_SERVE, "serve", serve_trace);
    assert_matches_golden(GOLDEN_SERVE, "serve-mt", serve_trace_mt);
}

#[test]
fn obs_snapshot_matches_golden_at_any_thread_count() {
    assert_matches_golden(GOLDEN_OBS_SNAPSHOT, "obs_snapshot", snapshot_json);
}

/// The full serving differential: 1 vs 8 decode workers must agree on
/// the trace bytes, the response-stream fold (counts + digest) and the
/// per-client counter registry — not just the rendering.
#[test]
fn serve_scenario_is_worker_count_independent() {
    let lone = ioguard_serve::replay::canonical_scenario(1);
    let wide = ioguard_serve::replay::canonical_scenario(8);
    assert_eq!(
        lone.trace, wide.trace,
        "serve traces diverged across workers"
    );
    assert_eq!(
        lone.fold, wide.fold,
        "response folds diverged across workers"
    );
    assert_eq!(
        lone.counters, wide.counters,
        "counter registries diverged across workers"
    );
    assert!(lone.fold_matches_live && wide.fold_matches_live);
}

#[test]
#[ignore = "writes tests/goldens/; run only after an intentional trace change"]
fn bless_goldens() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens");
    std::fs::create_dir_all(dir).expect("create goldens dir");
    std::fs::write(format!("{dir}/end_to_end.trace"), end_to_end_trace(SEED))
        .expect("write end_to_end golden");
    std::fs::write(format!("{dir}/chaos.trace"), chaos_trace(SEED)).expect("write chaos golden");
    std::fs::write(format!("{dir}/reconfig.trace"), reconfig_trace(SEED))
        .expect("write reconfig golden");
    std::fs::write(format!("{dir}/fleet.trace"), fleet_trace(SEED)).expect("write fleet golden");
    std::fs::write(format!("{dir}/serve.trace"), serve_trace(SEED)).expect("write serve golden");
    std::fs::write(format!("{dir}/obs_snapshot.json"), snapshot_json(SEED))
        .expect("write obs snapshot golden");
}
