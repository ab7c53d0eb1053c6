//! `compare A.json B.json`: judge report B against baseline A, one row
//! per workload × metric, by each metric's direction and bound.

use std::fmt::Write as _;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for exact metrics, equal).
    Same,
    /// Better than the baseline by more than the bound.
    Improved,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// An exact metric that moved in the better direction.
    Changed,
    /// A run-to-run spread on either side wider than the bound: the
    /// runs cannot tell.
    Unresolved,
    /// A per-layer metric: reported, never judged.
    Ungated,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Changed => "changed",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "-",
        }
    }
}

/// One side of a comparison, as read from a report.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread_pct: Option<f64>,
}

/// Judge `b` against baseline `a`. `bound` is a share of the baseline;
/// `Some(0.0)` demands equality.
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Ungated;
    };
    // Positive = worse, as a share of the baseline.
    let worse = if a.value == 0.0 {
        if b.value == a.value {
            0.0
        } else if (b.value > 0.0) == lower_is_better {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        let delta = (b.value - a.value) / a.value.abs();
        if lower_is_better {
            delta
        } else {
            -delta
        }
    };
    if bound == 0.0 {
        return match worse {
            w if w > 0.0 => Verdict::Regression,
            w if w < 0.0 => Verdict::Changed,
            _ => Verdict::Same,
        };
    }
    let noisy = |s: Side| s.spread_pct.is_some_and(|p| p > bound * 100.0);
    if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        spread_pct: metric.get("spread_pct").and_then(Json::as_f64),
    })
}

/// Compare two full reports. Returns the table and whether B is free of
/// regressions and of a higher `failed_ops_pct`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| "not a benchmark report: no `workloads` object".to_string())
    }
    fn metrics_of(report: &Json) -> &[(String, Json)] {
        report.get("metrics").and_then(Json::as_obj).unwrap_or(&[])
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<40} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta%", "bound%"
    );
    let mut ok = true;
    for (name, ra) in wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let mb = metrics_of(rb);
        for (metric, ja) in metrics_of(ra) {
            let Some((_, jb)) = mb.iter().find(|(n, _)| n == metric) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (side(ja), side(jb)) else {
                continue;
            };
            let lower = ja.get("better").and_then(Json::as_str) != Some("higher");
            let bound = ja.get("bound").and_then(Json::as_f64);
            let verdict = judge(sa, sb, lower, bound);
            ok &= verdict != Verdict::Regression;
            let delta = if sa.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}", (sb.value - sa.value) / sa.value.abs() * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<12} {:<40} {:>16.4} {:>16.4} {:>9} {:>7}  {}",
                name,
                metric,
                sa.value,
                sb.value,
                delta,
                bound.map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
                verdict.name()
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side {
            value,
            spread_pct: Some(spread),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // lower is better, 10 % bound
        assert_eq!(
            judge(s(100.0, 1.0), s(105.0, 1.0), true, Some(0.1)),
            Verdict::Same
        );
        assert_eq!(
            judge(s(100.0, 1.0), s(111.0, 1.0), true, Some(0.1)),
            Verdict::Regression
        );
        assert_eq!(
            judge(s(100.0, 1.0), s(80.0, 1.0), true, Some(0.1)),
            Verdict::Improved
        );
        // higher is better: the same numbers flip
        assert_eq!(
            judge(s(100.0, 1.0), s(111.0, 1.0), false, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            judge(s(100.0, 1.0), s(80.0, 1.0), false, Some(0.1)),
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        assert_eq!(
            judge(s(100.0, 12.0), s(130.0, 1.0), true, Some(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(100.0, 1.0), s(130.0, 12.0), true, Some(0.1)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_demand_equality() {
        let e = |v| Side {
            value: v,
            spread_pct: None,
        };
        assert_eq!(judge(e(5.0), e(5.0), true, Some(0.0)), Verdict::Same);
        assert_eq!(judge(e(5.0), e(6.0), true, Some(0.0)), Verdict::Regression);
        assert_eq!(judge(e(5.0), e(4.0), true, Some(0.0)), Verdict::Changed);
        // failed_ops_pct rising from zero is a regression, not a division.
        assert_eq!(judge(e(0.0), e(0.5), true, Some(0.0)), Verdict::Regression);
        assert_eq!(judge(e(0.0), e(0.0), true, Some(0.0)), Verdict::Same);
        assert_eq!(judge(e(1.0), e(2.0), true, None), Verdict::Ungated);
    }

    #[test]
    fn compare_reads_reports_and_flags_regressions() {
        let report = |wall: f64, failed_pct: f64| {
            crate::json::parse(&format!(
                r#"{{"workloads":{{"compile":{{"metrics":{{
                    "wall_s":{{"value":{wall},"better":"lower","bound":0.1,"spread_pct":2.0}},
                    "failed_ops_pct":{{"value":{failed_pct},"better":"lower","bound":0}},
                    "core.gvn_us":{{"value":3.5,"better":"lower"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (table, ok) = compare(&report(1.0, 0.0), &report(1.05, 0.0)).unwrap();
        assert!(ok, "{table}");
        assert_eq!(table.lines().count(), 4);
        let (table, ok) = compare(&report(1.0, 0.0), &report(1.3, 0.0)).unwrap();
        assert!(!ok && table.contains("REGRESSION"));
        let (_, ok) = compare(&report(1.0, 0.0), &report(1.0, 0.2)).unwrap();
        assert!(!ok, "a higher failed_ops_pct fails the comparison");
        assert!(compare(&Json::Null, &Json::Null).is_err());
    }
}
