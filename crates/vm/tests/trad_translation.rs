//! The Traditional world walks its page table only when both TLB levels
//! miss: a DTLB or STLB hit is taken to be a mapped page, and only a walk
//! reads the page table and demand-maps. For a fleet tenant that holds
//! only while its TLB, which travels in its capsule, and its page table,
//! which stays in its kernel process entry, move in step. This suite
//! externalizes a Traditional tenant after every slice, so it is
//! rehydrated and switched back in at each of its slices, and checks
//! that it ends exactly where an uninterrupted run of it ends.

use carat_kernel::{Pid, ProcState};
use carat_vm::{
    Mode, MultiVm, MultiVmConfig, ProcOutcome, ProcReport, ProcSpec, RunResult, VmConfig,
};

/// Touch one `int` per page over `pages` pages, `passes` times, reading
/// the first page between every two touches: the first pass walks and
/// demand-maps every page, later passes miss the DTLB and hit the STLB
/// (more pages than DTLB reach, fewer than STLB reach), and the first
/// page is a DTLB hit through the set lookup each time.
fn page_stride_src(pages: i64, passes: i64) -> String {
    format!(
        "
int main() {{
    int stride = 4096 / sizeof(int);
    int* a = (int*) malloc({pages} * 4096);
    int s = 0;
    for (int p = 0; p < {passes}; p += 1) {{
        for (int i = 0; i < {pages}; i += 1) {{
            a[i * stride] = a[i * stride] + i + p;
            s += a[0];
        }}
    }}
    for (int i = 0; i < {pages}; i += 1) {{ s += a[i * stride]; }}
    free(a);
    return s % 1000000;
}}
"
    )
}

fn trad_spec(name: &str, pages: i64, passes: i64) -> ProcSpec {
    ProcSpec {
        name: name.to_string(),
        module: carat_frontend::compile_cm(name, &page_stride_src(pages, passes))
            .expect("compiles"),
        cfg: VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        },
    }
}

/// The tenant under test (pid 0) and a longer Traditional bystander, so
/// that every slice of pid 0 is a switch from the bystander's page table
/// to its own.
fn fleet(quantum: u64) -> MultiVm {
    MultiVm::new(
        vec![trad_spec("sweep", 320, 3), trad_spec("bystander", 40, 40)],
        MultiVmConfig {
            quantum,
            ..MultiVmConfig::default()
        },
    )
    .expect("admits")
}

/// Run to the end; the reports and the paging trace's allocation count.
fn finish(mut mv: MultiVm, externalize: Option<Pid>) -> (Vec<ProcReport>, u64) {
    while mv.run_batch(1) == 1 {
        if let Some(pid) = externalize {
            let state = mv.kernel.procs.get(pid).map(|e| e.state);
            if state == Some(ProcState::Runnable) {
                mv.externalize_tenant(pid).expect("externalizes");
            }
        }
    }
    let allocs = mv.kernel.trace.allocs;
    (mv.run(), allocs)
}

fn finished(r: &ProcReport) -> &RunResult {
    match &r.outcome {
        ProcOutcome::Finished(run) => run,
        other => panic!("{} did not finish: {other:?}", r.name),
    }
}

#[test]
fn externalized_every_slice_translates_like_an_uninterrupted_run() {
    let (whole, whole_allocs) = finish(fleet(u64::MAX), None);
    let (sliced, sliced_allocs) = finish(fleet(61), Some(Pid(0)));
    let (w, s) = (finished(&whole[0]), finished(&sliced[0]));

    let trips = sliced[0].accounting.externalizations;
    assert!(trips > 100, "externalized {trips} times");
    assert_eq!(sliced[0].accounting.rehydrations, trips);
    assert!(
        sliced[0].accounting.ctx_switches > trips,
        "switched in at every slice"
    );
    assert_eq!(whole[0].accounting.externalizations, 0);

    assert!(w.dtlb_hits > 0 && w.stlb_hits > 0);
    assert_eq!(s.ret, w.ret);
    assert_eq!(
        (s.dtlb_hits, s.dtlb_misses, s.stlb_hits, s.pagewalks),
        (w.dtlb_hits, w.dtlb_misses, w.stlb_hits, w.pagewalks),
        "(dtlb hits, dtlb misses, stlb hits, pagewalks)"
    );
    // `translation_cycles` and `cycles` included.
    assert_eq!(s.counters, w.counters);
    assert!(w.pagewalks >= 320, "every page of the sweep was walked");
    assert_eq!(sliced_allocs, whole_allocs, "paging-trace allocations");
    assert_eq!(finished(&sliced[1]).ret, finished(&whole[1]).ret);
}
