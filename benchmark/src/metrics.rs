//! The metric dictionary: every name the benchmark prints, with its
//! unit, clock, direction and — for end-to-end metrics — the bound by
//! which it may worsen before `compare` calls it a regression.
//!
//! Two clocks. *Modeled* numbers (cycles, counts) are deterministic and
//! must repeat exactly; *host* numbers are wall-clock medians that carry
//! a spread. `BENCHMARK.json` at the repository root mirrors this table
//! (a unit test holds the two together).

/// Workload names, in report order.
pub const SOLO_CARAT: &str = "solo_carat";
pub const SOLO_TRAD: &str = "solo_trad";
pub const COMPILE: &str = "compile";
pub const MOVE_STORM: &str = "move_storm";
pub const FLEET_SERVE: &str = "fleet_serve";
pub const FLEET_CHURN: &str = "fleet_churn";

pub const ALL: &[&str] = &[
    SOLO_CARAT,
    SOLO_TRAD,
    COMPILE,
    MOVE_STORM,
    FLEET_SERVE,
    FLEET_CHURN,
];
const GUEST: &[&str] = &[SOLO_CARAT, SOLO_TRAD, MOVE_STORM, FLEET_SERVE, FLEET_CHURN];
const SOLO: &[&str] = &[SOLO_CARAT, SOLO_TRAD];
const FLEETS: &[&str] = &[FLEET_SERVE, FLEET_CHURN];
const MOVERS: &[&str] = &[MOVE_STORM, FLEET_SERVE];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock on the host; a median with a spread.
    Host,
    /// Deterministic simulator output; must repeat bit-for-bit.
    Modeled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    /// `Some(0.0)` demands equality (exact metrics); `None` is ungated
    /// (per-layer metrics).
    pub bound: Option<f64>,
    /// Workloads that report it.
    pub on: &'static [&'static str],
}

impl MetricDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        on,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Modeled};

/// End-to-end metrics: what a user of the system sees. The first four
/// are defined on every workload and are the ones `BENCHMARK.json`
/// declares under `end_to_end` (its contract wants every such metric
/// reported, non-zero, on every workload); the workload-specific ones
/// are printed and compared by this program under the same bounds and
/// appear in `BENCHMARK.json` under `per_layer`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Host, Lower, 0.25, ALL),
    e2e("wall_s", "s", Host, Lower, 0.24, ALL),
    e2e("step_p50_us", "us", Host, Lower, 0.24, ALL),
    e2e("peak_rss_mb", "MiB", Host, Lower, 0.24, ALL),
    e2e(
        "host_mips",
        "Minst/s",
        Host,
        Higher,
        0.24,
        &[SOLO_CARAT, SOLO_TRAD, MOVE_STORM, FLEET_SERVE],
    ),
    e2e("modeled_cycles", "cycles", Modeled, Lower, 0.0, GUEST),
    e2e("slice_p50_us", "us", Host, Lower, 0.24, FLEETS),
    e2e("slices_per_s", "1/s", Host, Higher, 0.24, &[FLEET_SERVE]),
    e2e("tenants_per_s", "1/s", Host, Higher, 0.24, FLEETS),
    e2e("admit_us_per_tenant", "us", Host, Lower, 0.24, FLEETS),
    e2e("compile_us_per_module", "us", Host, Lower, 0.24, &[COMPILE]),
    e2e("moves_per_s", "1/s", Host, Higher, 0.24, &[MOVE_STORM]),
    e2e("failed_ops_pct", "%", Modeled, Lower, 0.0, ALL),
    e2e("ops", "count", Modeled, Lower, 0.0, ALL),
];

/// Number of leading [`END_TO_END`] entries defined on every workload.
pub const UNIVERSAL: usize = 4;

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: None,
        on,
    }
}

/// Per-layer metrics: spans the benchmark records around its own calls,
/// and probes (fixed fixtures, A/B configurations) run in the traced
/// pass. `on` names the workloads whose traced pass measures the metric —
/// the ones whose end-to-end numbers it should move (see README.md).
pub const PER_LAYER: &[MetricDef] = &[
    // frontend
    layer("frontend.lex_parse_us", "us", Host, Lower, &[COMPILE]),
    layer("frontend.lower_us", "us", Host, Lower, &[COMPILE]),
    layer("frontend.ir_insts", "count", Modeled, Lower, &[COMPILE]),
    // ir
    layer("ir.verify_us", "us", Host, Lower, &[COMPILE]),
    // analysis
    layer("analysis.cfg_dom_loops_us", "us", Host, Lower, &[COMPILE]),
    layer("analysis.prove_function_us", "us", Host, Lower, &[COMPILE]),
    // core
    layer("core.gvn_us", "us", Host, Lower, &[COMPILE]),
    layer("core.inject_guards_us", "us", Host, Lower, &[COMPILE]),
    layer("core.hoist_us", "us", Host, Lower, &[COMPILE]),
    layer("core.merge_us", "us", Host, Lower, &[COMPILE]),
    layer("core.redundancy_us", "us", Host, Lower, &[COMPILE]),
    layer("core.inject_tracking_us", "us", Host, Lower, &[COMPILE]),
    layer("core.sign_us", "us", Host, Lower, &[COMPILE]),
    layer("core.compile_us", "us", Host, Lower, &[COMPILE]),
    layer(
        "core.guards_static",
        "count",
        Modeled,
        Lower,
        &[COMPILE, SOLO_CARAT],
    ),
    layer(
        "core.guards_remaining_pct",
        "%",
        Modeled,
        Lower,
        &[COMPILE, SOLO_CARAT],
    ),
    layer(
        "core.tracking_sites",
        "count",
        Modeled,
        Lower,
        &[COMPILE, SOLO_CARAT],
    ),
    // runtime
    layer(
        "runtime.region.check_ns.r8",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "runtime.region.check_ns.r64",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "runtime.alloc_table.track_ns",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "runtime.alloc_table.escape_ns",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "runtime.alloc_table.overlap_ns",
        "ns",
        Host,
        Lower,
        &[MOVE_STORM],
    ),
    layer("runtime.patch.build_ns_per_cell", "ns", Host, Lower, MOVERS),
    layer("runtime.patch.apply_ns_per_cell", "ns", Host, Lower, MOVERS),
    layer("runtime.patch.journal_batch4_us", "us", Host, Lower, MOVERS),
    layer("runtime.world.stop_ns.t1", "ns", Host, Lower, MOVERS),
    layer("runtime.world.stop_ns.t4", "ns", Host, Lower, MOVERS),
    // kernel
    layer(
        "kernel.loader.load_signed_us",
        "us",
        Host,
        Lower,
        &[COMPILE, FLEET_CHURN],
    ),
    layer(
        "kernel.buddy.alloc_free_ns",
        "ns",
        Host,
        Lower,
        &[MOVE_STORM],
    ),
    layer("kernel.move_pages_us", "us", Host, Lower, &[MOVE_STORM]),
    layer("kernel.move_batch4_us", "us", Host, Lower, &[MOVE_STORM]),
    layer("kernel.page_out_us", "us", Host, Lower, &[MOVE_STORM]),
    layer("kernel.page_in_us", "us", Host, Lower, &[MOVE_STORM]),
    layer("kernel.pin.check_ns.p1", "ns", Host, Lower, &[MOVE_STORM]),
    layer("kernel.pin.check_ns.p64", "ns", Host, Lower, &[MOVE_STORM]),
    layer("kernel.proc.switch_ns.carat", "ns", Host, Lower, FLEETS),
    layer("kernel.proc.switch_ns.trad", "ns", Host, Lower, FLEETS),
    layer("kernel.proc.next_runnable_ns", "ns", Host, Lower, FLEETS),
    layer(
        "kernel.proc.spawn_kill_ns",
        "ns",
        Host,
        Lower,
        &[FLEET_CHURN],
    ),
    layer(
        "kernel.arena.store_read_ns",
        "ns",
        Host,
        Lower,
        &[FLEET_CHURN],
    ),
    layer(
        "kernel.dev.dma_service_ns",
        "ns",
        Host,
        Lower,
        &[FLEET_SERVE],
    ),
    layer("kernel.dev.timer_arm_ns", "ns", Host, Lower, &[FLEET_SERVE]),
    layer(
        "kernel.ctx_switch_cycles.carat",
        "cycles",
        Modeled,
        Lower,
        &[FLEET_SERVE],
    ),
    layer(
        "kernel.ctx_switch_cycles.trad",
        "cycles",
        Modeled,
        Lower,
        &[FLEET_SERVE],
    ),
    layer(
        "kernel.compaction_cycles_per_reloc",
        "cycles",
        Modeled,
        Lower,
        &[FLEET_SERVE],
    ),
    layer(
        "kernel.irq_latency_p99_cycles",
        "cycles",
        Modeled,
        Lower,
        &[FLEET_SERVE],
    ),
    layer(
        "kernel.pressure_moves",
        "count",
        Modeled,
        Lower,
        &[FLEET_SERVE],
    ),
    layer(
        "kernel.pressure_page_outs",
        "count",
        Modeled,
        Lower,
        &[FLEET_SERVE],
    ),
    // vm
    layer("vm.decode.fused_us", "us", Host, Lower, &[COMPILE]),
    layer("vm.decode.threaded_us", "us", Host, Lower, &[COMPILE]),
    layer("vm.load_us", "us", Host, Lower, &[COMPILE]),
    layer("vm.machine.ns_per_inst.baseline", "ns", Host, Lower, SOLO),
    layer(
        "vm.machine.ns_per_inst.guards",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.ns_per_inst.tracking",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.ns_per_inst.full",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.ns_per_inst.traditional",
        "ns",
        Host,
        Lower,
        &[SOLO_TRAD],
    ),
    layer(
        "vm.machine.ns_per_inst.reference",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.ns_per_inst.decoded",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.ns_per_inst.threaded",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.guard_ns_per_check",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer(
        "vm.machine.track_ns_per_event",
        "ns",
        Host,
        Lower,
        &[SOLO_CARAT],
    ),
    layer("vm.machine.instructions", "count", Modeled, Lower, GUEST),
    layer("vm.machine.guards_executed", "count", Modeled, Lower, GUEST),
    layer("vm.machine.tracking_events", "count", Modeled, Lower, GUEST),
    layer(
        "vm.machine.fused_fraction",
        "ratio",
        Modeled,
        Higher,
        &[SOLO_CARAT, SOLO_TRAD, MOVE_STORM],
    ),
    layer("vm.tlb.dtlb_mpki", "1/kinst", Modeled, Lower, &[SOLO_TRAD]),
    layer("vm.tlb.pagewalks", "count", Modeled, Lower, &[SOLO_TRAD]),
    layer(
        "vm.modeled_overhead_pct",
        "%",
        Modeled,
        Lower,
        &[SOLO_CARAT],
    ),
    layer("vm.machine.tenant_roundtrip_ns", "ns", Host, Lower, FLEETS),
    layer("vm.multi.slice_fixed_ns.carat", "ns", Host, Lower, FLEETS),
    layer("vm.multi.slice_fixed_ns.trad", "ns", Host, Lower, FLEETS),
    layer(
        "vm.multi.pressure_pass_us",
        "us",
        Host,
        Lower,
        &[FLEET_SERVE],
    ),
    layer("vm.multi.slice_p99_us", "us", Host, Lower, FLEETS),
    layer("vm.multi.slice_p999_us", "us", Host, Lower, FLEETS),
    layer("vm.multi.slice_max_us", "us", Host, Lower, FLEETS),
    layer(
        "vm.multi.spawn_batch_us_per_tenant",
        "us",
        Host,
        Lower,
        FLEETS,
    ),
    layer(
        "vm.multi.spawn_seq_us_per_tenant",
        "us",
        Host,
        Lower,
        FLEETS,
    ),
    layer("vm.multi.externalize_us", "us", Host, Lower, FLEETS),
    layer("vm.multi.rehydrate_us", "us", Host, Lower, FLEETS),
    layer("vm.multi.kill_ns", "ns", Host, Lower, FLEETS),
    layer("vm.supervise.restart_us", "us", Host, Lower, FLEETS),
    layer(
        "vm.capsule.bytes_per_tenant",
        "bytes",
        Modeled,
        Lower,
        FLEETS,
    ),
    // workloads
    layer("workloads.source_us", "us", Host, Lower, &[COMPILE]),
    // per workload, from the spans
    layer("share_pct.frontend", "%", Host, Lower, ALL),
    layer("share_pct.ir", "%", Host, Lower, ALL),
    layer("share_pct.analysis", "%", Host, Lower, ALL),
    layer("share_pct.core", "%", Host, Lower, ALL),
    layer("share_pct.runtime", "%", Host, Lower, ALL),
    layer("share_pct.kernel", "%", Host, Lower, ALL),
    layer("share_pct.vm", "%", Host, Lower, ALL),
    layer("share_pct.workloads", "%", Host, Lower, ALL),
    layer("residual_pct", "%", Host, Lower, ALL),
    layer("trace_overhead_pct", "%", Host, Lower, ALL),
];

pub fn any(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} defined twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!m.on.is_empty());
        }
        assert!(END_TO_END[..UNIVERSAL].iter().all(|m| m.on == ALL));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must not drift apart.
    #[test]
    fn benchmark_json_mirrors_the_dictionary() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` array");
            };
            items
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                        m.get("better").unwrap().as_str().unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END[..UNIVERSAL]
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        let want_layers: Vec<_> = END_TO_END[UNIVERSAL..]
            .iter()
            .chain(PER_LAYER)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(names("per_layer"), want_layers);
        assert!(want_layers.len() <= 128);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no `workloads` array");
        };
        let listed: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(listed, ALL);
    }
}
