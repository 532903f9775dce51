//! The benchmark must not change what it measures: slicing the run, or
//! wrapping the machine in the profiler, leaves every simulated output
//! identical to a plain `run_to_report`, and the traced accounting adds
//! up. Each workload runs at 1/20 of its horizon.

use ceio_benchmark::json::Json;
use ceio_benchmark::metrics::{self, END_TO_END};
use ceio_benchmark::run::{self, REPORTED_KINDS};
use ceio_benchmark::workloads::{DEFAULT_SEED, WORKLOADS};

const DIV: u64 = 20;

#[test]
fn sliced_traced_and_single_run_paths_agree() {
    for w in WORKLOADS.iter().map(|w| w.shortened(DIV)) {
        let reference = run::reference(&w, DEFAULT_SEED);
        let timed = run::timed(&w, DEFAULT_SEED);
        let traced = run::traced(&w, DEFAULT_SEED);
        for (path, c) in [
            ("reference", &reference),
            ("timed", &timed.out),
            ("traced", &traced.out),
        ] {
            assert!(c.failures.is_empty(), "{} {path}: {:?}", w.name, c.failures);
        }
        assert_eq!(
            timed.out.digest, reference.digest,
            "{}: slicing changed the output",
            w.name
        );
        assert_eq!(
            traced.out.digest, reference.digest,
            "{}: profiling changed the output",
            w.name
        );
        assert_eq!(timed.slice_s.len() as u64, run::SLICES);
        assert_eq!(
            traced.out.counters, reference.counters,
            "{}: counters differ",
            w.name
        );
    }
}

#[test]
fn traced_accounting_adds_up() {
    for w in WORKLOADS.iter().map(|w| w.shortened(DIV)) {
        let t = run::traced(&w, DEFAULT_SEED);
        let per_kind: u64 = t.events.iter().sum();
        assert_eq!(per_kind, t.events_processed, "{}: per-kind counts", w.name);
        assert_eq!(
            t.out.counters.get("ceio_sim_events_total"),
            t.events_processed,
            "{}: engine export",
            w.name
        );
        // Kinds without metrics never fire: the reported ones cover all.
        assert_eq!(
            t.events[REPORTED_KINDS..].iter().sum::<u64>(),
            0,
            "{}",
            w.name
        );
        assert!(t.engine_s() >= 0.0, "{}: handler time exceeds wall", w.name);
        let sum = t.handler_s() + t.engine_s();
        assert!(
            (sum - t.wall_s).abs() <= 1e-9 * t.wall_s.max(1.0),
            "{}",
            w.name
        );
    }
}

/// `BENCHMARK.json` lists exactly what the binary prints.
#[test]
fn benchmark_json_matches_the_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .to_vec()
    };
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();

    let names: Vec<String> = list("workloads").iter().map(|j| field(j, "name")).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit);
        assert_eq!(field(j, "better"), m.better.as_str());
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    let w = WORKLOADS[0].shortened(DIV);
    let untraced = metrics::end_to_end(&[run::timed(&w, DEFAULT_SEED)], &[1e-6], 1.0);
    let printed: Vec<&str> = untraced.iter().map(|v| v.name.as_str()).collect();
    assert_eq!(
        printed,
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );

    let traced = metrics::per_layer(&[run::traced(&w, DEFAULT_SEED)], &[1.0]);
    let printed: Vec<(String, String)> = traced
        .iter()
        .map(|v| (v.name.clone(), v.unit.to_string()))
        .collect();
    let listed: Vec<(String, String)> = list("per_layer")
        .iter()
        .map(|j| (field(j, "name"), field(j, "unit")))
        .collect();
    assert_eq!(printed, listed);
}
