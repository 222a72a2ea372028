//! `--compare A.json B.json`: every (end-to-end metric, workload) of two
//! result files side by side, judged against the bounds `BENCHMARK.json`
//! fixes. A pair whose own segment spread exceeds the bound is reported as
//! unresolved, not as unchanged.

use crate::json::{self, Json};

/// One end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn declared_end_to_end(benchmark: &Json) -> Result<Vec<Declared>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("end_to_end entry without {k}"))
            };
            Ok(Declared {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// How one pair of values compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Within,
    Breach,
    Unresolved,
}

/// `b` against `a`: the relative change, signed so that positive is worse,
/// and the verdict under `bound`. `spread` is the larger of the two
/// results' own segment spreads.
pub fn judge(d: &Declared, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if d.higher_is_better { -change } else { change };
    let verdict = if worse_by > d.bound {
        Verdict::Breach
    } else if spread > d.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (worse_by, verdict)
}

/// Results of a file keyed by workload (a later result replaces an earlier
/// one of the same workload). Accepts a `{"results": [...]}` set or a
/// single result object.
fn results_by_workload(path: &str) -> Result<Vec<(String, Json)>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    let list: Vec<Json> = match doc.get("results").and_then(Json::as_arr) {
        Some(items) => items.to_vec(),
        None => vec![doc],
    };
    let mut out: Vec<(String, Json)> = Vec::new();
    for result in list {
        let name = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a result has no workload"))?
            .to_string();
        out.retain(|(n, _)| *n != name);
        out.push((name, result));
    }
    Ok(out)
}

fn metric(result: &Json, name: &str) -> Option<(f64, f64)> {
    let m = result.get("metrics")?.get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let benchmark = json::parse(&benchmark)?;
    let declared = declared_end_to_end(&benchmark)?;
    // Workloads outside `BENCHMARK.json` (micro_durable) are shown and
    // judged but cannot fail the comparison: they carry no promise.
    let gated: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let (a, b) = (results_by_workload(path_a)?, results_by_workload(path_b)?);
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let (mut breaches, mut unresolved, mut compared) = (0, 0, 0);
    for (workload, result_a) in &a {
        let Some((_, result_b)) = b.iter().find(|(n, _)| n == workload) else {
            println!("{workload:<16} only in {path_a}");
            continue;
        };
        let is_gated = gated.contains(&workload.as_str());
        for d in &declared {
            let (Some((va, sa)), Some((vb, sb))) =
                (metric(result_a, &d.name), metric(result_b, &d.name))
            else {
                return Err(format!("{workload}: {} missing from a result", d.name));
            };
            let spread = sa.max(sb);
            let (worse_by, verdict) = judge(d, va, vb, spread);
            compared += 1;
            match verdict {
                Verdict::Breach if is_gated => breaches += 1,
                Verdict::Unresolved if is_gated => unresolved += 1,
                _ => {}
            }
            println!(
                "{workload:<16} {:<16} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.1}% {:>7.1}%  {}",
                d.name,
                100.0 * worse_by,
                100.0 * d.bound,
                100.0 * spread,
                match (verdict, is_gated) {
                    (Verdict::Within, _) => "within bound",
                    (Verdict::Breach, true) => "BREACH",
                    (Verdict::Breach, false) => "over the bound (workload not gated)",
                    (Verdict::Unresolved, _) => "unresolved (segment spread exceeds the bound)",
                }
            );
        }
    }
    println!(
        "{compared} pairs compared; on the gated workloads {breaches} breach(es), {unresolved} \
         unresolved"
    );
    if compared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn judge_is_one_sided_and_direction_aware() {
        let tps = Declared {
            name: "tps".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: 0.10,
        };
        assert_eq!(judge(&tps, 1000.0, 850.0, 0.02).1, Verdict::Breach);
        assert_eq!(judge(&tps, 1000.0, 950.0, 0.02).1, Verdict::Within);
        // Getting better is never a breach, however large.
        assert_eq!(judge(&tps, 1000.0, 2000.0, 0.02).1, Verdict::Within);
        assert_eq!(judge(&lower(0.10), 200.0, 230.0, 0.02).1, Verdict::Breach);
        assert_eq!(judge(&lower(0.10), 200.0, 150.0, 0.02).1, Verdict::Within);
        let (worse_by, _) = judge(&lower(0.10), 200.0, 210.0, 0.0);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_pair_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(&lower(0.10), 200.0, 205.0, 0.15).1,
            Verdict::Unresolved
        );
        // A breach stays a breach even when the pair is noisy.
        assert_eq!(judge(&lower(0.10), 200.0, 260.0, 0.15).1, Verdict::Breach);
    }
}
