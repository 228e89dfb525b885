//! The metrics the benchmark prints, their units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ups", "1/s"),
    ("latency_p50_us", "us"),
    ("loaded_latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // end-to-end figures whose spread between runs on a shared 2-core VM
    // reached or passed the largest bound allowed (0.25): the p99s follow
    // the host's scheduling hiccups, process CPU per 1000 units its load
    ("latency_p99_us", "us"),
    ("loaded_latency_p99_us", "us"),
    ("cpu_ms_per_kunit", "ms"),
    ("runtime.dispatch_to_done_us_p50", "us"),
    ("runtime.queue_wait_us_p50", "us"),
    ("runtime.requeues", "count"),
    ("runtime.driver_cpu_frac", "frac"),
    ("transport.frames_per_unit", "count"),
    ("transport.bytes_per_unit", "B"),
    ("transport.queue_hwm_bytes", "B"),
    ("driver.runq_wait_s", "s"),
    ("worker.cpu_s", "s"),
    ("worker.runq_wait_s", "s"),
    ("library.cpu_s", "s"),
    ("library.runq_wait_s", "s"),
    ("task.cpu_s", "s"),
    ("reactor.cpu_s", "s"),
    ("reactor.runq_wait_s", "s"),
    ("tcp_worker.cpu_s", "s"),
    ("tcp_worker.runq_wait_s", "s"),
    ("host.loadavg_1m", "load"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.frame_bytes", "B"),
    ("manager.decide_us", "us"),
    ("manager.decisions", "count"),
    ("manager.installs", "count"),
    ("manager.evictions", "count"),
    ("lang.warm_call_us", "us"),
    ("lang.cold_call_us", "us"),
    ("lang.compile_us", "us"),
    ("install.library_ms", "ms"),
    ("lint.library_us", "us"),
    ("data.image_hits", "count"),
    ("data.image_misses", "count"),
    ("dag.build_us_per_node", "us"),
    ("dag.preflight_ms", "ms"),
    ("dag.run_us_per_node", "us"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("residual_us", "us"),
    ("traced.throughput_ups", "1/s"),
    ("traced.latency_p50_us", "us"),
    ("traced.loaded_latency_p50_us", "us"),
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MiB"),
    ("tracing.throughput_overhead_pct", "%"),
];

/// Names of the metrics a workload measured, with their values. Layers a
/// workload does not exercise read zero.
pub type Values = BTreeMap<&'static str, f64>;

/// Every metric of `table` with its value from `values`, as the JSON
/// object the result line carries.
pub fn metrics_json(table: &[(&str, &str)], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// The benchmark declaration the driver reads: workload names, and each
/// metric's name and unit.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    pub fn parse(text: &str) -> Result<Declared, String> {
        let root = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let field = |v: &serde::Value, key: &str| -> Option<serde::Value> {
            v.as_map()?
                .iter()
                .find(|(k, _)| matches!(k, serde::Value::Str(s) if s == key))
                .map(|(_, v)| v.clone())
        };
        let string = |v: &serde::Value, key: &str| -> Result<String, String> {
            match field(v, key) {
                Some(serde::Value::Str(s)) => Ok(s),
                _ => Err(format!("BENCHMARK.json: entry without a string `{key}`")),
            }
        };
        let list = |key: &str| -> Result<Vec<serde::Value>, String> {
            match field(&root, key) {
                Some(serde::Value::Seq(items)) => Ok(items),
                _ => Err(format!("BENCHMARK.json: no `{key}` list")),
            }
        };
        let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
            list(key)?
                .iter()
                .map(|m| Ok((string(m, "name")?, string(m, "unit")?)))
                .collect()
        };
        Ok(Declared {
            workloads: list("workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Every metric the benchmark prints must be declared with the same
    /// unit, and every declared metric must be printed.
    pub fn check(&self) -> Result<(), String> {
        for (declared, table, kind) in [
            (&self.end_to_end, END_TO_END, "end_to_end"),
            (&self.per_layer, PER_LAYER, "per_layer"),
        ] {
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            for m in &printed {
                if !declared.contains(m) {
                    return Err(format!(
                        "metric {} ({}) is printed but not declared in {kind}",
                        m.0, m.1
                    ));
                }
            }
            for m in declared {
                if !printed.contains(m) {
                    return Err(format!(
                        "{kind} metric {} ({}) is declared but never printed",
                        m.0, m.1
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_printed_metric_is_declared_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = Declared::parse(&text).expect("BENCHMARK.json parses");
        declared
            .check()
            .expect("metric tables match BENCHMARK.json");
        let mut wanted: Vec<&str> = crate::Workload::ALL
            .into_iter()
            .filter(|w| w.in_benchmark())
            .map(|w| w.name())
            .collect();
        wanted.sort_unstable();
        let mut found: Vec<&str> = declared.workloads.iter().map(|w| w.as_str()).collect();
        found.sort_unstable();
        assert_eq!(found, wanted);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s", 0.25);
        let metrics = metrics_json(END_TO_END, &values).unwrap();
        let line = result_line(true, 10, 1, &metrics);
        let parsed = serde_json::parse(&line).expect("result line is JSON");
        let m = parsed.as_map().unwrap();
        assert_eq!(m.len(), 4);
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        values.insert("latency_p50_us", f64::NAN);
        assert!(metrics_json(END_TO_END, &values).is_err());
    }
}
