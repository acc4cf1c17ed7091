//! Request parsing and response rendering for the `/v1/*` endpoints.
//!
//! All parsing is strict-but-defaulted: unknown fields are rejected, missing
//! optional fields take documented defaults, and every numeric input is
//! capped against the server's [`Limits`] so a single request can neither
//! monopolise the workers nor allocate unboundedly.

use std::str::FromStr;

use fetchmech::experiments::{Lab, LayoutVariant};
use fetchmech::json::Value;
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::suite;
use fetchmech::{SchemeKind, SimResult};
use fetchmech_frontend::Format;

use super::engine::SimKey;

/// Hard per-request caps and defaults, taken from the server configuration.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// `insts` used when the request omits it.
    pub default_insts: u64,
    /// Largest accepted `insts`.
    pub max_insts: u64,
    /// `deadline_ms` used when the request omits it.
    pub default_deadline_ms: u64,
    /// Largest accepted `deadline_ms`.
    pub max_deadline_ms: u64,
}

/// Most grid cells a single `/v1/sweep` may expand to.
pub(crate) const MAX_SWEEP_JOBS: usize = 512;

/// A validated `/v1/simulate` request.
#[derive(Debug, Clone)]
pub struct SimulateRequest {
    /// The coalescing key (also echoed in the response).
    pub key: SimKey,
    /// The resolved machine model.
    pub machine: MachineModel,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: u64,
}

/// A validated `/v1/sweep` request: the expanded grid in deterministic
/// benches × machines × schemes × layouts order.
#[derive(Debug, Clone)]
pub(crate) struct SweepRequest {
    /// One entry per grid cell, in response order.
    pub cells: Vec<(SimKey, MachineModel)>,
    /// Per-request deadline, milliseconds (shared by the whole sweep).
    pub deadline_ms: u64,
}

/// Interns a benchmark name to its `&'static str`, validating it exists —
/// either a suite benchmark or an uploaded external program registered via
/// `POST /v1/programs`.
fn intern_bench(lab: &Lab, name: &str) -> Result<&'static str, String> {
    lab.intern_name(name)
        .ok_or_else(|| format!("unknown bench {name:?} (see /healthz for the suite)"))
}

/// Resolves a machine name to `(static lower-case name, model)`.
fn resolve_machine(name: &str) -> Result<(&'static str, MachineModel), String> {
    let stat = match name.to_ascii_lowercase().as_str() {
        "p14" => "p14",
        "p18" => "p18",
        "p112" => "p112",
        _ => {
            return Err(format!(
                "unknown machine {name:?} (expected p14, p18, or p112)"
            ))
        }
    };
    let model = MachineModel::by_name(stat).ok_or_else(|| format!("unknown machine {name:?}"))?;
    Ok((stat, model))
}

fn parse_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("empty body (expected a JSON object)".to_string());
    }
    fetchmech::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))
}

/// Extracts an object and rejects unknown keys.
fn object_fields<'v>(value: &'v Value, allowed: &[&str]) -> Result<&'v [(String, Value)], String> {
    let Value::Object(fields) = value else {
        return Err("body must be a JSON object".to_string());
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "unknown field {k:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(fields)
}

fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(format!("{key} must be a string")),
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v {
        Value::Uint(n) => Ok(*n),
        _ => Err(format!("{key} must be a non-negative integer")),
    }
}

fn parse_insts(fields: &[(String, Value)], limits: &Limits) -> Result<u64, String> {
    match get(fields, "insts") {
        None => Ok(limits.default_insts),
        Some(v) => {
            let n = as_u64(v, "insts")?;
            if n == 0 {
                return Err("insts must be positive".to_string());
            }
            if n > limits.max_insts {
                return Err(format!("insts {n} exceeds the cap of {}", limits.max_insts));
            }
            Ok(n)
        }
    }
}

fn parse_deadline(fields: &[(String, Value)], limits: &Limits) -> Result<u64, String> {
    match get(fields, "deadline_ms") {
        None => Ok(limits.default_deadline_ms),
        Some(v) => {
            let n = as_u64(v, "deadline_ms")?;
            if n == 0 {
                return Err("deadline_ms must be positive".to_string());
            }
            Ok(n.min(limits.max_deadline_ms))
        }
    }
}

fn parse_scheme(name: &str) -> Result<SchemeKind, String> {
    SchemeKind::from_str(name).map_err(|_| {
        let all: Vec<&str> = SchemeKind::ALL.iter().map(|s| s.name()).collect();
        format!(
            "unknown scheme {name:?} (expected one of: {})",
            all.join(", ")
        )
    })
}

fn parse_layout(name: &str) -> Result<LayoutVariant, String> {
    LayoutVariant::from_str(name).map_err(|e| e.to_string())
}

/// Parses and validates a `/v1/simulate` body.
///
/// # Errors
///
/// A human-readable validation message, rendered as a structured 400.
pub fn parse_simulate(body: &[u8], limits: &Limits, lab: &Lab) -> Result<SimulateRequest, String> {
    let value = parse_body(body)?;
    let fields = object_fields(
        &value,
        &[
            "bench",
            "machine",
            "scheme",
            "layout",
            "insts",
            "deadline_ms",
        ],
    )?;
    let bench = intern_bench(
        lab,
        as_str(
            get(fields, "bench").ok_or("missing required field \"bench\"")?,
            "bench",
        )?,
    )?;
    let (machine_name, machine) = match get(fields, "machine") {
        None => resolve_machine("p14")?,
        Some(v) => resolve_machine(as_str(v, "machine")?)?,
    };
    let scheme = match get(fields, "scheme") {
        None => SchemeKind::CollapsingBuffer,
        Some(v) => parse_scheme(as_str(v, "scheme")?)?,
    };
    let variant = match get(fields, "layout") {
        None => LayoutVariant::Natural,
        Some(v) => parse_layout(as_str(v, "layout")?)?,
    };
    let insts = parse_insts(fields, limits)?;
    let deadline_ms = parse_deadline(fields, limits)?;
    Ok(SimulateRequest {
        key: SimKey {
            bench,
            machine: machine_name,
            scheme,
            variant,
            insts,
        },
        machine,
        deadline_ms,
    })
}

fn string_list<'v>(
    fields: &'v [(String, Value)],
    key: &str,
) -> Result<Option<Vec<&'v str>>, String> {
    match get(fields, key) {
        None => Ok(None),
        Some(Value::Array(items)) => {
            if items.is_empty() {
                return Err(format!("{key} must be a non-empty array"));
            }
            items
                .iter()
                .map(|v| as_str(v, key))
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        }
        Some(_) => Err(format!("{key} must be an array of strings")),
    }
}

/// Parses and validates a `/v1/sweep` body, expanding the grid.
///
/// # Errors
///
/// A human-readable validation message, rendered as a structured 400.
pub(crate) fn parse_sweep(body: &[u8], limits: &Limits, lab: &Lab) -> Result<SweepRequest, String> {
    let value = parse_body(body)?;
    let fields = object_fields(
        &value,
        &[
            "benches",
            "machines",
            "schemes",
            "layouts",
            "insts",
            "deadline_ms",
        ],
    )?;
    let benches = string_list(fields, "benches")?
        .ok_or("missing required field \"benches\"")?
        .into_iter()
        .map(|name| intern_bench(lab, name))
        .collect::<Result<Vec<_>, _>>()?;
    let machines = match string_list(fields, "machines")? {
        None => vec![resolve_machine("p14")?],
        Some(names) => names
            .into_iter()
            .map(resolve_machine)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let schemes: Vec<SchemeKind> = match string_list(fields, "schemes")? {
        None => SchemeKind::ALL.to_vec(),
        Some(names) => names
            .into_iter()
            .map(parse_scheme)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let layouts: Vec<LayoutVariant> = match string_list(fields, "layouts")? {
        None => vec![LayoutVariant::Natural],
        Some(names) => names
            .into_iter()
            .map(parse_layout)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let insts = parse_insts(fields, limits)?;
    let deadline_ms = parse_deadline(fields, limits)?;

    let total = benches.len() * machines.len() * schemes.len() * layouts.len();
    if total > MAX_SWEEP_JOBS {
        return Err(format!(
            "sweep grid of {total} cells exceeds the cap of {MAX_SWEEP_JOBS}"
        ));
    }
    let mut cells = Vec::with_capacity(total);
    for &bench in &benches {
        for (machine_name, machine) in &machines {
            for &scheme in &schemes {
                for &variant in &layouts {
                    cells.push((
                        SimKey {
                            bench,
                            machine: machine_name,
                            scheme,
                            variant,
                            insts,
                        },
                        machine.clone(),
                    ));
                }
            }
        }
    }
    Ok(SweepRequest { cells, deadline_ms })
}

/// A validated `/v1/programs` upload: the declared frontend format plus the
/// raw program source, ready for `fetchmech_frontend::parse`.
#[derive(Debug, Clone)]
pub(crate) struct ProgramUpload {
    /// The declared source format.
    pub format: Format,
    /// The program text (Bril JSON or WAT).
    pub source: String,
}

/// Parses and validates a `/v1/programs` body: a JSON object with a
/// `format` tag (`"bril"` or `"wat"`) and the program `source` as a string.
///
/// # Errors
///
/// A human-readable validation message, rendered as a structured 400.
pub(crate) fn parse_program_upload(body: &[u8]) -> Result<ProgramUpload, String> {
    let value = parse_body(body)?;
    let fields = object_fields(&value, &["format", "source"])?;
    let format_name = as_str(
        get(fields, "format").ok_or("missing required field \"format\"")?,
        "format",
    )?;
    let format = Format::from_str(format_name)
        .map_err(|_| format!("unknown format {format_name:?} (expected \"bril\" or \"wat\")"))?;
    let source = as_str(
        get(fields, "source").ok_or("missing required field \"source\"")?,
        "source",
    )?
    .to_string();
    if source.trim().is_empty() {
        return Err("source must not be empty".to_string());
    }
    Ok(ProgramUpload { format, source })
}

/// Renders one simulation result, echoing the request key so responses are
/// self-describing inside sweep arrays.
#[must_use]
pub fn sim_result_json(key: &SimKey, result: &SimResult) -> Value {
    Value::object([
        ("bench", Value::Str(key.bench.to_string())),
        ("machine", Value::Str(key.machine.to_string())),
        ("scheme", Value::Str(result.scheme.name().to_string())),
        ("layout", Value::Str(key.variant.name().to_string())),
        ("insts", Value::Uint(key.insts)),
        ("cycles", Value::Uint(result.cycles)),
        ("retired", Value::Uint(result.retired)),
        ("retired_useful", Value::Uint(result.retired_useful)),
        ("delivered", Value::Uint(result.delivered)),
        ("ipc", Value::Num(result.ipc())),
        ("eir", Value::Num(result.eir())),
        (
            "fetch",
            Value::object([
                ("packets", Value::Uint(result.fetch.packets)),
                // Counts demand misses, not cycles (see `FetchStats`).
                (
                    "miss_stall_cycles",
                    Value::Uint(result.fetch.miss_stall_cycles),
                ),
                (
                    "redirect_stall_cycles",
                    Value::Uint(result.fetch.redirect_stall_cycles),
                ),
                ("mispredicts", Value::Uint(result.fetch.mispredicts)),
                ("bank_conflicts", Value::Uint(result.fetch.bank_conflicts)),
                ("collapsed", Value::Uint(result.fetch.collapsed)),
            ]),
        ),
        (
            "icache",
            Value::object([
                ("accesses", Value::Uint(result.icache.accesses)),
                ("misses", Value::Uint(result.icache.misses)),
            ]),
        ),
        (
            "btb",
            Value::object([
                ("lookups", Value::Uint(result.btb.lookups)),
                ("hits", Value::Uint(result.btb.hits)),
                ("allocations", Value::Uint(result.btb.allocations)),
                ("evictions", Value::Uint(result.btb.evictions)),
            ]),
        ),
    ])
}

/// The `/healthz` body: liveness plus the vocabulary clients need to build
/// requests. `store_state` is the persistence tier's health — `"disabled"`
/// (no store configured), `"active"`, or `"degraded"` (persistence failed;
/// serving from memory). `programs` lists the external program ids uploaded
/// through `POST /v1/programs` this process lifetime, sorted.
#[must_use]
pub(crate) fn healthz_json(store_state: &str, programs: &[&'static str]) -> Value {
    let benches: Vec<Value> = suite::INT_NAMES
        .iter()
        .chain(suite::FP_NAMES.iter())
        .map(|b| Value::Str((*b).to_string()))
        .collect();
    let schemes: Vec<Value> = SchemeKind::ALL
        .iter()
        .map(|s| Value::Str(s.name().to_string()))
        .collect();
    let layouts: Vec<Value> = [
        LayoutVariant::Natural,
        LayoutVariant::PadAll,
        LayoutVariant::Reordered,
        LayoutVariant::PadTrace,
    ]
    .iter()
    .map(|v| Value::Str(v.name().to_string()))
    .collect();
    Value::object([
        ("status", Value::Str("ok".to_string())),
        ("store", Value::Str(store_state.to_string())),
        ("benches", Value::Array(benches)),
        (
            "machines",
            Value::Array(vec![
                Value::Str("p14".to_string()),
                Value::Str("p18".to_string()),
                Value::Str("p112".to_string()),
            ]),
        ),
        ("schemes", Value::Array(schemes)),
        ("layouts", Value::Array(layouts)),
        (
            "programs",
            Value::Array(
                programs
                    .iter()
                    .map(|p| Value::Str((*p).to_string()))
                    .collect(),
            ),
        ),
    ])
}
