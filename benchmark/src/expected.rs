//! The committed reference results and the check every op goes through.
//!
//! `expected.json` holds, per program or tenant image, the return value
//! and the FNV-1a hash of the printed output. It is produced once by
//! [`generate`] — `Engine::Reference` on the *uninstrumented* module,
//! never the compiler or engine a later change is measuring — and
//! embedded at build time, so a run needs no file beside the binary.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use carat_kernel::fnv1a;
use carat_vm::{Engine, RunResult, Vm, VmConfig};
use carat_workloads::{all_workloads, chaos_tenant, fleet_tenant, io_server, Scale};

use crate::json::{self, Json};

/// `VmConfig::seed` values `--seed` draws from. Only `ep`, `canneal` and
/// `swaptions` call `rand()`, but their results depend on it, so the
/// reference is committed for exactly these.
pub const VM_SEEDS: [u64; 8] = [
    0x5eed_cafe_f00d_0001,
    0x0123_4567_89ab_cdef,
    0x0f1e_2d3c_4b5a_6978,
    0x1357_9bdf_0246_8ace,
    0x2468_ace0_1357_9bdf,
    0x3c3c_a5a5_5a5a_c3c3,
    0x4d2f_6b1e_9a07_c583,
    0x7fed_cba9_8765_4321,
];

/// Tenant-image seeds `--seed` draws from (`fleet_tenant(scale, k)` …).
pub const IMAGE_SEEDS: std::ops::Range<i64> = 0..16;

/// The programs `move_storm` runs; their references exist for every
/// entry of [`VM_SEEDS`].
pub const STORM_PROGRAMS: [&str; 5] = ["mcf", "deepsjeng", "nab", "canneal", "lbm"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub ret: i64,
    pub out_fnv: u64,
    pub out_lines: usize,
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Key of a suite program run under `VmConfig::seed = vm_seed`.
pub fn program_key(name: &str, scale: Scale, vm_seed: u64) -> String {
    format!("{name}@{}#{vm_seed:016x}", scale_name(scale))
}

/// Key of a tenant image compiled with `image_seed`.
pub fn tenant_key(name: &str, scale: Scale, image_seed: i64) -> String {
    format!("{name}@{}#{image_seed}", scale_name(scale))
}

fn output_fnv(output: &[String]) -> u64 {
    fnv1a(output.join("\n").as_bytes())
}

fn table() -> &'static BTreeMap<String, Expected> {
    static TABLE: OnceLock<BTreeMap<String, Expected>> = OnceLock::new();
    TABLE.get_or_init(|| {
        parse_table(include_str!("../expected.json"))
            .unwrap_or_else(|e| panic!("benchmark/expected.json is malformed: {e}"))
    })
}

fn parse_table(text: &str) -> Result<BTreeMap<String, Expected>, String> {
    let doc = json::parse(text)?;
    let pairs = doc.as_obj().ok_or("top level is not an object")?;
    let mut out = BTreeMap::new();
    for (key, v) in pairs {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("{key}: missing `{name}`"))
        };
        let ret = field("ret")?
            .as_f64()
            .ok_or_else(|| format!("{key}: `ret` is not a number"))? as i64;
        let out_fnv = field("out_fnv")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("{key}: `out_fnv` is not a hex string"))?;
        let out_lines = field("out_lines")?
            .as_f64()
            .ok_or_else(|| format!("{key}: `out_lines` is not a number"))?
            as usize;
        out.insert(
            key.clone(),
            Expected {
                ret,
                out_fnv,
                out_lines,
            },
        );
    }
    Ok(out)
}

pub fn lookup(key: &str) -> Option<Expected> {
    table().get(key).copied()
}

/// Check a finished run's return value and printed output against the
/// reference for `key`.
pub fn check_run(key: &str, run: &RunResult) -> Result<(), String> {
    let want = lookup(key).ok_or_else(|| format!("{key}: no reference in expected.json"))?;
    if run.ret != want.ret {
        return Err(format!(
            "{key}: returned {}, reference {}",
            run.ret, want.ret
        ));
    }
    let got = output_fnv(&run.output);
    if run.output.len() == want.out_lines && got == want.out_fnv {
        Ok(())
    } else {
        Err(format!(
            "{key}: printed {} lines hashing to {got:016x}, reference {} lines {:016x}",
            run.output.len(),
            want.out_lines,
            want.out_fnv
        ))
    }
}

fn reference_run(module: carat_ir::Module, vm_seed: u64) -> Result<Expected, String> {
    let cfg = VmConfig {
        engine: Engine::Reference,
        seed: vm_seed,
        ..VmConfig::default()
    };
    let run = Vm::new(module, cfg)
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;
    Ok(Expected {
        ret: run.ret,
        out_fnv: output_fnv(&run.output),
        out_lines: run.output.len(),
    })
}

/// Produce the whole reference table: every suite program at the smoke
/// and measured scales under the default `VmConfig::seed`, the storm
/// programs under every [`VM_SEEDS`] entry, and every tenant image for
/// every [`IMAGE_SEEDS`] entry.
pub fn generate() -> Result<Json, String> {
    let mut rows: BTreeMap<String, Expected> = BTreeMap::new();
    for scale in [Scale::Test, Scale::Small] {
        for w in all_workloads() {
            let seeds: &[u64] = if STORM_PROGRAMS.contains(&w.name) {
                &VM_SEEDS
            } else {
                &VM_SEEDS[..1]
            };
            for &vm_seed in seeds {
                let module = w.module(scale).map_err(|e| format!("{}: {e}", w.name))?;
                rows.insert(
                    program_key(w.name, scale, vm_seed),
                    reference_run(module, vm_seed).map_err(|e| format!("{}: {e}", w.name))?,
                );
            }
        }
    }
    let tenants: [(&str, crate::workloads::compile::TenantBuilder); 3] = [
        ("fleet_tenant", fleet_tenant),
        ("chaos_tenant", chaos_tenant),
        ("io_server", io_server),
    ];
    for scale in [Scale::Test, Scale::Small, Scale::Full] {
        for (name, build) in tenants {
            for seed in IMAGE_SEEDS {
                let module = build(scale, seed).map_err(|e| format!("{name}: {e}"))?;
                rows.insert(
                    tenant_key(name, scale, seed),
                    reference_run(module, VM_SEEDS[0]).map_err(|e| format!("{name}: {e}"))?,
                );
            }
        }
    }
    Ok(Json::Obj(
        rows.into_iter()
            .map(|(k, e)| {
                (
                    k,
                    Json::obj(vec![
                        ("ret", Json::Num(e.ret as f64)),
                        ("out_fnv", Json::str(format!("{:016x}", e.out_fnv))),
                        ("out_lines", Json::Num(e.out_lines as f64)),
                    ]),
                )
            })
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_covers_every_key_the_workloads_use() {
        for scale in [Scale::Test, Scale::Small] {
            for w in all_workloads() {
                assert!(lookup(&program_key(w.name, scale, VM_SEEDS[0])).is_some());
            }
            for name in STORM_PROGRAMS {
                for seed in VM_SEEDS {
                    assert!(lookup(&program_key(name, scale, seed)).is_some());
                }
            }
        }
        for name in ["fleet_tenant", "chaos_tenant", "io_server"] {
            for scale in [Scale::Test, Scale::Small, Scale::Full] {
                for seed in IMAGE_SEEDS {
                    assert!(lookup(&tenant_key(name, scale, seed)).is_some());
                }
            }
        }
    }

    #[test]
    fn table_parser_rejects_incomplete_rows() {
        assert!(parse_table(r#"{"a@test#0": {"ret": 1, "out_fnv": "ff"}}"#).is_err());
        assert!(
            parse_table(r#"{"a@test#0": {"ret": 1, "out_fnv": "zz", "out_lines": 0}}"#).is_err()
        );
        let ok = parse_table(r#"{"a@test#0": {"ret": -3, "out_fnv": "0a", "out_lines": 2}}"#);
        assert_eq!(
            ok.unwrap()["a@test#0"],
            Expected {
                ret: -3,
                out_fnv: 10,
                out_lines: 2
            }
        );
    }
}
