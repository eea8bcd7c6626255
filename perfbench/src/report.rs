//! The one-line result every run prints last:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use serde_json::{json, Map, Value};

/// Metrics in the order they were added, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.retain(|(n, _, _)| n != name);
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Renders the result line. Non-finite values are written as 0 so the
/// line always parses.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut m = Map::new();
    for (name, value, unit) in &metrics.entries {
        let value = if value.is_finite() { *value } else { 0.0 };
        m.insert(name.clone(), json!({ "value": value, "unit": unit }));
    }
    let out = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(m),
    });
    out.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_schema_keys() {
        let mut m = Metrics::default();
        m.put("submit_p50_us", 17.25, "us");
        m.put("setup_s", 0.8127, "s");
        m.put("setup_s", 0.9, "s");
        m.put("bad", f64::NAN, "ms");
        let line = render(true, 1000, 0, &m);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let obj = v.as_object().unwrap();
        let mut keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"], Value::Bool(true));
        assert_eq!(v["attempted"].as_u64(), Some(1000));
        assert_eq!(v["failed"].as_u64(), Some(0));
        let metrics = v["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), 3, "a re-put metric replaces the old value");
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.9));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["bad"]["value"].as_f64(), Some(0.0));
        for (_, entry) in metrics.iter() {
            assert_eq!(entry.as_object().unwrap().len(), 2);
            assert!(entry["value"].as_f64().is_some() && entry["unit"].as_str().is_some());
        }
    }

    #[test]
    fn attempted_is_the_real_count() {
        let v: Value = serde_json::from_str(&render(false, 0, 0, &Metrics::default())).unwrap();
        assert_eq!(v["attempted"].as_u64(), Some(0), "an empty run is not padded to one operation");
    }
}
