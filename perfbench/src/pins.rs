//! Pinned reference outputs (`pins.json`): the deterministic digest of
//! each workload at its measured size and default seeds.

use crate::workloads::{Digest, Spec};
use hinet_rt::bench::json::Json;

/// The committed pins, compiled into the binary.
pub const PINS_JSON: &str = include_str!("../pins.json");

/// Parse the committed pins.
pub fn committed() -> Json {
    Json::parse(PINS_JSON).expect("pins.json is valid JSON")
}

/// The pin for `spec`, if `pins` has one for its workload at exactly its
/// size and seeds.
pub fn pin_for<'a>(pins: &'a Json, spec: &Spec) -> Option<&'a Json> {
    let pin = pins.get(spec.workload.name())?;
    let matches = [
        ("n", spec.n as u64),
        ("k", spec.k as u64),
        ("seed", spec.seed),
        ("fault_seed", spec.fault_seed),
    ]
    .iter()
    .all(|&(key, want)| pin.get(key).and_then(Json::as_u64) == Some(want));
    matches.then_some(pin)
}

/// Compare a digest with the pin for `spec`. Returns one message per
/// mismatch; no pin for the spec means nothing to compare.
pub fn check(pins: &Json, spec: &Spec, digest: &Digest) -> Vec<String> {
    let Some(expect) = pin_for(pins, spec).and_then(|p| p.get("expect")) else {
        return Vec::new();
    };
    let Json::Obj(fields) = expect else {
        return vec![format!(
            "{}: pin 'expect' is not an object",
            spec.workload.name()
        )];
    };
    fields
        .iter()
        .filter_map(|(key, want)| {
            let got = digest.get(key);
            (got.is_none() || got != want.as_u64()).then(|| {
                format!(
                    "{}: {key} = {} but pins.json expects {want}",
                    spec.workload.name(),
                    got.map_or("(absent)".to_string(), |v| v.to_string()),
                )
            })
        })
        .collect()
}
