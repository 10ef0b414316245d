//! The benchmark's contract, read from the repository's `BENCHMARK.json`.
//!
//! The file is compiled into the binary so that metric names, units and
//! bounds have one source of truth: the runner emits exactly the metrics
//! the file names, with the file's units, and `compare` judges them
//! against the file's bounds.

use qoa_obs::perfetto::json::{self, Value};

/// The contract file, as committed next to this crate.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric counts as better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, cycles).
    Lower,
    /// Larger values are better.
    Higher,
}

/// One named metric of the contract.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name, as printed in a result line.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (`None` for per-layer
    /// metrics, which carry no bound).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<MetricSpec>,
}

/// Parses [`BENCHMARK_JSON`].
///
/// # Panics
///
/// When the compiled-in file is malformed: it ships with the binary, so
/// that is a defect of the build, not of any input.
pub fn spec() -> Spec {
    parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json is malformed: {e}"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = json::parse(text)?;
    let field = |key: &str| get(&root, key);
    let run_seconds = field("run_seconds")?
        .as_i64()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or("run_seconds is not a whole number")?;
    let workloads = array(field("workloads")?)?
        .iter()
        .map(|w| string(w, "name"))
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
        array(field(key)?)?
            .iter()
            .map(|m| {
                let better = match string(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("unknown direction '{other}'")),
                };
                let bound = if bounded {
                    Some(get(m, "bound")?.as_f64().ok_or("bound is not a number")?)
                } else {
                    None
                };
                Ok(MetricSpec { name: string(m, "name")?, unit: string(m, "unit")?, better, bound })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds,
        workloads,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

fn array(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Array(items) => Ok(items),
        _ => Err("expected an array".into()),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(map) => map.get(key).ok_or_else(|| format!("missing key '{key}'")),
        _ => Err(format!("expected an object holding '{key}'")),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    get(v, key)?.as_str().map(str::to_string).ok_or_else(|| format!("'{key}' is not a string"))
}
