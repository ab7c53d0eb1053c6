//! Whole-run tests at `--smoke` sizes: determinism of the modeled clock,
//! seeding, and completeness of what a traced run reports.

use crate::json::{self, Json};
use crate::metrics::{self, Clock};
use crate::report;
use crate::run::{self, Budget, Options, WorkloadReport};

fn smoke(workload: &'static str, seed: u64, trace: bool) -> (Options, WorkloadReport) {
    let opts = Options {
        seed,
        smoke: true,
        budget: Budget::Reps(1),
        trace,
        workloads: vec![workload],
    };
    let mut reports = run::run(&opts).expect("smoke run sets up");
    (opts, reports.remove(0))
}

fn exact_metrics(r: &WorkloadReport) -> Vec<(&'static str, u64)> {
    run::defined(r)
        .filter(|(def, _)| def.clock == Clock::Modeled)
        .map(|(def, v)| (def.name, v.value.to_bits()))
        .collect()
}

#[test]
fn every_workload_repeats_its_modeled_metrics_bit_for_bit() {
    for &w in metrics::ALL {
        let (_, a) = smoke(w, 7, false);
        let (_, b) = smoke(w, 7, false);
        assert!(a.correct(), "{w}: {:?}", a.notes);
        assert!(a.attempted > 0 && a.failed == 0);
        let (ea, eb) = (exact_metrics(&a), exact_metrics(&b));
        assert!(!ea.is_empty());
        assert_eq!(
            ea, eb,
            "{w}: modeled metrics differ between two runs of one seed"
        );
    }
}

#[test]
fn a_second_seed_changes_fleet_serve_inputs_and_still_checks_out() {
    let (_, a) = smoke(metrics::FLEET_SERVE, 1, false);
    let (_, b) = smoke(metrics::FLEET_SERVE, 2, false);
    assert_ne!(a.sizes, b.sizes, "the fault plan is drawn from the seed");
    for r in [&a, &b] {
        assert!(r.correct(), "{:?}", r.notes);
        assert_eq!(r.metrics["failed_ops_pct"].value, 0.0);
    }
}

#[test]
fn a_traced_run_reports_every_metric_defined_for_its_workload() {
    for &w in metrics::ALL {
        let (opts, r) = smoke(w, 3, true);
        assert!(r.correct(), "{w}: {:?}", r.notes);
        for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            if def.applies_to(w) {
                let v = r
                    .metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{w} does not report {}", def.name));
                assert!(v.value.is_finite(), "{w}: {} is {}", def.name, v.value);
            } else {
                assert!(
                    !r.metrics.contains_key(def.name),
                    "{w} reports {}",
                    def.name
                );
            }
        }
        assert!(!r.tracer.records().is_empty(), "{w} recorded no span");
        // The driver's line names every declared per-layer metric, and
        // nothing but numbers.
        let line = json::parse(&report::driver_line(&opts, &[r])).unwrap();
        let listed = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(
            listed.len(),
            metrics::END_TO_END.len() - metrics::UNIVERSAL + metrics::PER_LAYER.len()
        );
        assert!(listed
            .iter()
            .all(|(_, m)| m.get("value").and_then(Json::as_f64).is_some()));
    }
}

#[test]
fn the_untraced_driver_line_has_exactly_the_contract_keys() {
    let (opts, r) = smoke(metrics::COMPILE, 5, false);
    let line = json::parse(&report::driver_line(&opts, &[r])).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let names: Vec<&str> = line
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, ["setup_s", "wall_s", "step_p50_us", "peak_rss_mb"]);
}
