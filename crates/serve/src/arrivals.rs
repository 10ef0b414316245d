//! Seeded open-loop arrival generation and the request-plan format.
//!
//! Arrivals are Poisson in the limit: a Bernoulli trial per virtual-time
//! quantum with success probability `rate * quantum`, implemented as one
//! integer threshold comparison per quantum. No floating point and no
//! `ln()` enters the schedule, so a plan is byte-identical across hosts,
//! libm versions, and job counts — the property the CI golden diff
//! relies on.

use qoa_core::QoaError;

/// `SplitMix64`, the stack's standard seedable generator.
pub use qoa_chaos::SplitMix64;

/// One serving request, fully specified before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Submission index (journal order).
    pub id: u64,
    /// Arrival on the virtual clock (micro-op cycles).
    pub arrival: u64,
    /// Index into the server's tenant table.
    pub tenant: usize,
    /// Index into the server's workload table.
    pub workload: usize,
    /// Admission priority (higher survives the shed gate longer).
    pub priority: i64,
    /// Relative deadline in virtual cycles from arrival.
    pub deadline: u64,
}

/// Per-tenant traffic profile the generator draws from.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// Relative share of generated traffic.
    pub weight: u32,
    /// Priority stamped on this tenant's requests.
    pub priority: i64,
    /// Relative deadline stamped on this tenant's requests (vcycles).
    pub deadline: u64,
}

/// Inputs to the open-loop generator.
#[derive(Debug, Clone)]
pub struct ArrivalSpec {
    /// RNG seed; same seed, same plan.
    pub seed: u64,
    /// Requests to generate.
    pub count: usize,
    /// Mean arrival rate: requests per million virtual cycles.
    pub rate_per_m: u64,
    /// Tenant profiles (weighted).
    pub tenants: Vec<TenantMix>,
    /// Workload weights, parallel to the server's workload table.
    pub workload_weights: Vec<u32>,
}

/// Generates `spec.count` open-loop arrivals, sorted by arrival time.
///
/// The inter-arrival process is geometric over quanta of
/// `max(1, mean/16)` vcycles, which converges to exponential
/// (memoryless) inter-arrivals while staying pure-integer.
pub fn generate(spec: &ArrivalSpec) -> Vec<Request> {
    let rate = spec.rate_per_m.max(1);
    let mean = (1_000_000 / rate).max(1); // mean inter-arrival, vcycles
    let quantum = (mean / 16).max(1);
    // P(arrival in one quantum) = quantum * rate / 1e6, as a u64
    // threshold against a raw 2^64 draw.
    let threshold =
        ((quantum as u128 * rate as u128 * (1u128 << 64)) / 1_000_000).min(u128::from(u64::MAX));
    let threshold = threshold as u64;

    let mut rng = SplitMix64::new(spec.seed);
    let tenant_total: u64 = spec.tenants.iter().map(|t| u64::from(t.weight.max(1))).sum();
    let workload_total: u64 =
        spec.workload_weights.iter().map(|w| u64::from((*w).max(1))).sum();

    let mut out = Vec::with_capacity(spec.count);
    let mut tick: u64 = 0;
    while out.len() < spec.count {
        tick += 1;
        if rng.next_u64() >= threshold {
            continue;
        }
        let arrival = tick * quantum;
        let tenant = weighted_pick(
            rng.next_u64() % tenant_total.max(1),
            spec.tenants.iter().map(|t| u64::from(t.weight.max(1))),
        );
        let workload = weighted_pick(
            rng.next_u64() % workload_total.max(1),
            spec.workload_weights.iter().map(|w| u64::from((*w).max(1))),
        );
        let profile = &spec.tenants[tenant];
        out.push(Request {
            id: out.len() as u64,
            arrival,
            tenant,
            workload,
            priority: profile.priority,
            deadline: profile.deadline,
        });
    }
    out
}

fn weighted_pick(mut roll: u64, weights: impl Iterator<Item = u64>) -> usize {
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        last = i;
        if roll < w {
            return i;
        }
        roll -= w;
    }
    last
}

// ---- plan file format ------------------------------------------------------

/// Renders one request as a plan line (names resolved by the caller).
pub fn plan_line(req: &Request, tenant: &str, workload: &str) -> String {
    format!(
        "{{\"arrival\":{},\"tenant\":\"{}\",\"workload\":\"{}\",\"priority\":{},\"deadline\":{}}}",
        req.arrival, tenant, workload, req.priority, req.deadline
    )
}

fn bad_plan(lineno: usize, what: &str) -> QoaError {
    QoaError::Journal {
        context: format!("request plan line {lineno}: {what}"),
        source: std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed plan"),
    }
}

/// Extracts a raw JSON scalar (`"key":<value>`) from a single-line
/// object. Quoted values are returned without the quotes.
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Parses a plan file body back into requests, resolving tenant and
/// workload names against the server's tables.
///
/// # Errors
///
/// [`QoaError::Journal`] on malformed lines or unknown names.
pub fn parse_plan(
    body: &str,
    tenant_names: &[String],
    workload_names: &[String],
) -> Result<Vec<Request>, QoaError> {
    let mut out = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let arrival = json_field(line, "arrival")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad_plan(lineno + 1, "missing arrival"))?;
        let tenant_name =
            json_field(line, "tenant").ok_or_else(|| bad_plan(lineno + 1, "missing tenant"))?;
        let workload_name = json_field(line, "workload")
            .ok_or_else(|| bad_plan(lineno + 1, "missing workload"))?;
        let priority = json_field(line, "priority")
            .and_then(|v| v.parse::<i64>().ok())
            .ok_or_else(|| bad_plan(lineno + 1, "missing priority"))?;
        let deadline = json_field(line, "deadline")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad_plan(lineno + 1, "missing deadline"))?;
        let tenant = tenant_names
            .iter()
            .position(|n| n == tenant_name)
            .ok_or_else(|| bad_plan(lineno + 1, "unknown tenant"))?;
        let workload = workload_names
            .iter()
            .position(|n| n == workload_name)
            .ok_or_else(|| bad_plan(lineno + 1, "unknown workload"))?;
        out.push(Request {
            id: out.len() as u64,
            arrival,
            tenant,
            workload,
            priority,
            deadline,
        });
    }
    out.sort_by_key(|r| (r.arrival, r.id));
    for (i, r) in out.iter_mut().enumerate() {
        r.id = i as u64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> ArrivalSpec {
        ArrivalSpec {
            seed,
            count: 200,
            rate_per_m: 50,
            tenants: vec![
                TenantMix { weight: 3, priority: 0, deadline: 500_000 },
                TenantMix { weight: 1, priority: 5, deadline: 250_000 },
            ],
            workload_weights: vec![2, 1],
        }
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(generate(&spec(7)), generate(&spec(7)));
        assert_ne!(generate(&spec(7)), generate(&spec(8)));
    }

    #[test]
    fn arrivals_are_sorted_and_rate_is_plausible() {
        let reqs = generate(&spec(42));
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let span = reqs.last().expect("nonempty").arrival;
        let measured_per_m = reqs.len() as u64 * 1_000_000 / span.max(1);
        assert!(
            (20..=100).contains(&measured_per_m),
            "rate 50/M requested, measured {measured_per_m}/M over {span}"
        );
    }

    #[test]
    fn plan_round_trips() {
        let tenants = vec!["free".to_string(), "pro".to_string()];
        let workloads = vec!["go".to_string(), "float".to_string()];
        let reqs = generate(&spec(3));
        let body: String = reqs
            .iter()
            .map(|r| plan_line(r, &tenants[r.tenant], &workloads[r.workload]) + "\n")
            .collect();
        let parsed = parse_plan(&body, &tenants, &workloads).expect("parses");
        assert_eq!(parsed, reqs);
    }

    #[test]
    fn unknown_tenant_is_a_typed_error() {
        let err = parse_plan(
            "{\"arrival\":1,\"tenant\":\"ghost\",\"workload\":\"go\",\"priority\":0,\"deadline\":10}",
            &["free".to_string()],
            &["go".to_string()],
        )
        .expect_err("unknown tenant");
        assert_eq!(err.kind(), "journal");
    }
}
