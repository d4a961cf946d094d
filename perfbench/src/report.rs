//! Metric records and the run's printed result.

use spb_stats::json::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]),
        )
    }));
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(3, 1, &[metric("setup_s", 0.5, "s")]);
        let v = Json::parse(&line).unwrap();
        assert_eq!(
            v.get("correct").map(|c| c.to_string()),
            Some("false".into())
        );
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(1));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
