//! Metric names, units and the result line.
//!
//! Every name printed here is declared in `BENCHMARK.json`; a self-test
//! keeps the two lists identical.

use std::collections::BTreeMap;

/// The end-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("journal_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by a traced run. A metric of a layer
/// the workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 69] = [
    // Reads and writes split, from the traced run's untraced phase.
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("journal_bytes_per_write", "B"),
    ("recovery_s", "s"),
    // net
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.bytes_per_op", "B"),
    ("net.rtt_minus_inproc_us", "us"),
    // server
    ("server.submit_wait_us", "us"),
    ("server.batch_size_mean", "count"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.exec_p50_us", "us"),
    ("server.publish_p50_us", "us"),
    ("server.commit_p50_us", "us"),
    // store
    ("store.execute_group_us_per_write", "us"),
    ("store.fsync_p50_us", "us"),
    ("store.fsyncs_per_write", "ratio"),
    ("store.record_bytes_per_write", "B"),
    ("store.replay_us_per_record", "us"),
    // core.program / core.ops
    ("core.program.apply_us.tag", "us"),
    ("core.program.apply_us.link", "us"),
    ("core.program.apply_us.unlink", "us"),
    ("core.program.apply_us.delete", "us"),
    ("core.program.apply_us.new_info", "us"),
    ("core.ops.matchings_per_write", "count"),
    ("core.ops.ea_us", "us"),
    // core.snapshot
    ("core.snapshot.publish_us", "us"),
    ("core.snapshot.load_us", "us"),
    // query
    ("query.parse_us.point", "us"),
    ("query.parse_us.hop2", "us"),
    ("query.parse_us.scan", "us"),
    ("query.parse_us.reach", "us"),
    ("query.parse_us.bounded", "us"),
    ("query.compile_us.point", "us"),
    ("query.compile_us.hop2", "us"),
    ("query.compile_us.scan", "us"),
    ("query.compile_us.reach", "us"),
    ("query.compile_us.bounded", "us"),
    ("query.execute_us.point", "us"),
    ("query.execute_us.hop2", "us"),
    ("query.execute_us.scan", "us"),
    ("query.execute_us.reach", "us"),
    ("query.execute_us.bounded", "us"),
    ("query.rows_per_query.point", "count"),
    ("query.rows_per_query.hop2", "count"),
    ("query.rows_per_query.scan", "count"),
    ("query.rows_per_query.reach", "count"),
    ("query.rows_per_query.bounded", "count"),
    ("query.materialize_us", "us"),
    ("query.project_us", "us"),
    // core.matching / core.planner
    ("core.matching.find_us", "us"),
    ("core.matching.examined_per_row", "ratio"),
    ("core.planner.plan_us", "us"),
    ("core.planner.generic_join_frac", "ratio"),
    // core.macros
    ("core.macros.star_us", "us"),
    ("core.macros.rounds", "count"),
    ("core.macros.useful_frac", "ratio"),
    // bench validity rows
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unexplained_frac", "ratio"),
    ("read.point.p50_ms", "ms"),
    ("read.hop2.p50_ms", "ms"),
    ("read.scan.p50_ms", "ms"),
    ("read.reach.p50_ms", "ms"),
    ("read.bounded.p50_ms", "ms"),
];

/// Measured values by name, checked against a declared list.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Record `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Render the declared metrics, in declaration order, as the
    /// `metrics` object of the result line. Undeclared names are an
    /// error; declared but unmeasured ones read 0.
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        if let Some(name) = self
            .0
            .keys()
            .find(|name| !declared.iter().any(|(d, _)| d == name))
        {
            return Err(format!("metric {name} is not declared"));
        }
        let mut out = String::from("{");
        for (index, (name, unit)) in declared.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let value = self.get(name);
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push('}');
        Ok(out)
    }

    /// The human-readable table printed above the result line.
    pub fn table(&self, declared: &[(&str, &str)]) -> String {
        declared
            .iter()
            .map(|(name, unit)| format!("{name:<36} {:>14.4} {unit}\n", self.get(name)))
            .collect()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        doc[section]
            .as_seq()
            .expect("a list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn the_result_line_carries_every_declared_metric_and_nothing_else() {
        let mut metrics = Metrics::default();
        metrics.set("p50_ms", 1.25);
        let rendered = metrics.render(&END_TO_END).unwrap();
        let line = result_line(true, 3, 0, &rendered);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        let names: Vec<&str> = doc["metrics"]
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str().unwrap())
            .collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert_eq!(doc["metrics"]["p50_ms"]["value"].as_f64(), Some(1.25));
        metrics.set("not_a_metric", 1.0);
        assert!(metrics.render(&END_TO_END).is_err());
    }
}
