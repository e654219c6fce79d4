//! `--compare BASE.json CHANGE.json`: one row per (end-to-end metric,
//! workload), judged by the bounds in [`crate::metrics::END_TO_END`].

use crate::json::Json;
use crate::metrics::{EndToEnd, Judge, END_TO_END};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Simulated metric, same bits.
    Identical,
    /// Within the bound, and both sides' runs agree closely enough to say so.
    Unchanged,
    /// Within the bound, but one side's quartiles lie further apart than the
    /// bound: the data cannot tell "unchanged" from "changed by less than the
    /// noise".
    Unresolved,
    /// Every run of the change reads better than every run of the base.
    Improved,
    /// Simulated metric, different bits, not worse: the modelled algorithm
    /// changed and the reader should know.
    Changed,
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Changed => "changed",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Reported value, quartiles and range of one metric in one result file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn judge(metric: &EndToEnd, base: Reading, change: Reading) -> Verdict {
    // Oriented so that larger is worse.
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (change.value - base.value);
    match metric.judge {
        Judge::Exact => {
            if change.value.to_bits() == base.value.to_bits() {
                Verdict::Identical
            } else if worse_by > 0.0 {
                Verdict::Regression
            } else {
                Verdict::Changed
            }
        }
        Judge::Measured { share, slack } => {
            let limit = share * base.value.abs() + slack;
            let all_better = if metric.higher_is_better {
                change.min > base.max
            } else {
                change.max < base.min
            };
            let too_wide = |r: Reading| r.q3 - r.q1 > share * r.value.abs() + slack;
            if worse_by > limit {
                Verdict::Regression
            } else if all_better {
                Verdict::Improved
            } else if too_wide(base) || too_wide(change) {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

fn reading(workload: &Json, metric: &str) -> Result<Reading, String> {
    let entry = workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("no end-to-end metric {metric}"))?;
    let field = |key: &str| {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{metric} has no {key}"))
    };
    Ok(Reading {
        value: field("value")?,
        min: field("min")?,
        q1: field("q1")?,
        q3: field("q3")?,
        max: field("max")?,
    })
}

fn number(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no {key}"))
}

fn workloads(result: &Json) -> Result<&[Json], String> {
    result
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| "no workloads".to_string())
}

/// The comparison table, and whether anything regressed.
pub fn compare(base: &Json, change: &Json) -> Result<(String, bool), String> {
    if number(base, "seed")? != number(change, "seed")? {
        return Err(
            "the two results were made with different seeds; the simulated metrics \
                    only compare exactly for one seed"
                .to_string(),
        );
    }
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<15} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "change", "delta"
    );
    let change_workloads = workloads(change)?;
    for base_workload in workloads(base)? {
        let name = base_workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload without a name")?
            .to_string();
        let Some(change_workload) = change_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            let _ = writeln!(out, "{name:<15} missing from the change: REGRESSION");
            regressed = true;
            continue;
        };
        for metric in &END_TO_END {
            let a = reading(base_workload, metric.name).map_err(|e| format!("{name}: {e}"))?;
            let b = reading(change_workload, metric.name).map_err(|e| format!("{name}: {e}"))?;
            let verdict = judge(metric, a, b);
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                out,
                "{:<15} {:<20} {:>14.6} {:>14.6} {:>+7.2}%  {}",
                name,
                metric.name,
                a.value,
                b.value,
                (b.value - a.value) / a.value * 100.0,
                verdict.label()
            );
        }
        let failure_share = |w: &Json| -> Result<f64, String> {
            Ok(number(w, "ops_failed")? / number(w, "ops_attempted")?.max(1.0))
        };
        let (a, b) = (
            failure_share(base_workload)?,
            failure_share(change_workload)?,
        );
        let worse = b > a;
        regressed |= worse;
        let _ = writeln!(
            out,
            "{:<15} {:<20} {:>14.6} {:>14.6} {:>8}  {}",
            name,
            "ops_failed_share",
            a,
            b,
            "",
            if worse { "REGRESSION" } else { "ok" }
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// A reading whose quartiles sit halfway between the median and the
    /// extremes.
    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading {
            value,
            min,
            q1: (value + min) / 2.0,
            q3: (value + max) / 2.0,
            max,
        }
    }

    #[test]
    fn timings_are_judged_by_bound_and_range() {
        let wall = metric("wall_s"); // lower is better, 10 %
        let base = r(1.0, 0.98, 1.03);
        assert_eq!(judge(wall, base, r(1.02, 1.0, 1.05)), Verdict::Unchanged);
        assert_eq!(judge(wall, base, r(1.11, 1.09, 1.12)), Verdict::Regression);
        assert_eq!(judge(wall, base, r(0.9, 0.88, 0.97)), Verdict::Improved);
        // Better on the value but the ranges overlap and one is wide.
        assert_eq!(judge(wall, base, r(0.95, 0.9, 1.2)), Verdict::Unresolved);
        assert_eq!(
            judge(wall, r(1.0, 0.9, 1.15), r(1.0, 1.0, 1.0)),
            Verdict::Unresolved
        );
        // A regression stays one however wide the ranges are.
        assert_eq!(
            judge(wall, r(1.0, 0.5, 1.5), r(1.2, 0.5, 1.5)),
            Verdict::Regression
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let rate = metric("updates_per_s");
        let base = r(1000.0, 990.0, 1010.0);
        assert_eq!(
            judge(rate, base, r(880.0, 870.0, 890.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(rate, base, r(1200.0, 1100.0, 1300.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(rate, base, r(995.0, 985.0, 1005.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn absolute_slack_forgives_small_bases() {
        let setup = metric("setup_s"); // 25 % + 0.02 s
        assert_eq!(
            judge(setup, r(0.002, 0.002, 0.002), r(0.015, 0.015, 0.015)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(setup, r(0.1, 0.1, 0.1), r(0.15, 0.15, 0.15)),
            Verdict::Regression
        );
        let rss = metric("peak_rss_mib"); // 5 % + 1 MiB
        assert_eq!(
            judge(rss, r(6.0, 6.0, 6.0), r(7.2, 7.2, 7.2)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(rss, r(100.0, 100.0, 100.0), r(107.0, 107.0, 107.0)),
            Verdict::Regression
        );
    }

    #[test]
    fn simulated_metrics_compare_bit_exactly() {
        let ratio = metric("sim_loss_ratio");
        let x = 0.1 + 0.2;
        assert_eq!(judge(ratio, r(x, x, x), r(x, x, x)), Verdict::Identical);
        let next = f64::from_bits(x.to_bits() + 1);
        assert_eq!(
            judge(ratio, r(x, x, x), r(next, next, next)),
            Verdict::Regression
        );
        assert_eq!(
            judge(ratio, r(next, next, next), r(x, x, x)),
            Verdict::Changed
        );
    }

    fn result(seed: f64, wall: f64, failed: f64) -> Json {
        let exact = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::str("x")),
                ("min", Json::Num(v)),
                ("q1", Json::Num(v)),
                ("q3", Json::Num(v)),
                ("max", Json::Num(v)),
                ("n", Json::Num(1.0)),
            ])
        };
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("loop-bound")),
                    ("ops_attempted", Json::Num(10.0)),
                    ("ops_failed", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::obj(
                            END_TO_END.iter().map(|m| {
                                (m.name, exact(if m.name == "wall_s" { wall } else { 2.0 }))
                            }),
                        ),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_walks_every_metric_and_flags_regressions() {
        let (table, regressed) = compare(&result(1.0, 1.0, 0.0), &result(1.0, 1.05, 0.0)).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 1);
        assert!(table.contains("identical") && table.contains("unchanged"));

        let (table, regressed) = compare(&result(1.0, 1.0, 0.0), &result(1.0, 1.2, 0.0)).unwrap();
        assert!(regressed && table.contains("REGRESSION"), "{table}");
        let (_, regressed) = compare(&result(1.0, 1.0, 0.0), &result(1.0, 1.0, 1.0)).unwrap();
        assert!(regressed, "more failed operations is a regression");
        assert!(compare(&result(1.0, 1.0, 0.0), &result(2.0, 1.0, 0.0)).is_err());

        let mut dropped = result(1.0, 1.0, 0.0);
        if let Json::Obj(pairs) = &mut dropped {
            pairs[1].1 = Json::Arr(vec![]);
        }
        let (table, regressed) = compare(&result(1.0, 1.0, 0.0), &dropped).unwrap();
        assert!(regressed && table.contains("missing"), "{table}");
    }
}
