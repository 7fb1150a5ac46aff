//! The `/sweep` body format, pinned byte for byte.
//!
//! The load harness and the benchmark compare the server's bodies with
//! what the same build's `sweep_body` renders, so a change to the
//! format itself would pass them unnoticed. This literal was rendered
//! by the `json::Object` writer that the one-buffer writer replaced.

use bpred_core::{AliasStats, BhtStats};
use bpred_serve::{sweep_body, SweepRequest};
use bpred_sim::SimResult;

const PINNED: &str = concat!(
    r#"{"workload":"odd \"name\"\\\n\u0001","seed":1996,"branches":5000,"warmup":7,"engine":2,"#,
    r#""source_id":"src \"id\"\\\t\u001f","cells":["#,
    r#"{"config":"gshare:h=8,c=2","predictor":"gshare \"x\"\\\n\u0001","state_bits":1024,"#,
    r#""conditionals":4993,"mispredictions":321,"misprediction_rate":0.06429000600841178,"#,
    r#""alias":{"accesses":4993,"conflicts":77,"harmless_conflicts":5}},"#,
    r#"{"config":"pas:h=4,c=2","predictor":"PAs","state_bits":9000,"conditionals":4993,"#,
    r#""mispredictions":1,"misprediction_rate":0.0002002803925495694,"#,
    r#""alias":{"accesses":4993,"conflicts":0,"harmless_conflicts":0},"#,
    r#""bht":{"accesses":4993,"misses":12}},"#,
    r#"{"config":"bimodal:a=10","predictor":"bimodal","state_bits":2048,"conditionals":3,"#,
    r#""mispredictions":1,"misprediction_rate":0.3333333333333333},"#,
    r#"{"config":"taken","predictor":"always-taken","state_bits":0,"conditionals":0,"#,
    r#""mispredictions":0,"misprediction_rate":0}]}"#,
);

fn result(predictor: &str, state_bits: u64, conditionals: u64, mispredictions: u64) -> SimResult {
    SimResult {
        predictor: predictor.to_owned(),
        state_bits,
        conditionals,
        mispredictions,
        alias: None,
        bht: None,
    }
}

#[test]
fn sweep_body_bytes_are_pinned() {
    let request = SweepRequest {
        workload: "odd \"name\"\\\n\u{1}".to_owned(),
        seed: 1996,
        branches: Some(5000),
        warmup: 7,
        configs: ["gshare:h=8,c=2", "pas:h=4,c=2", "bimodal:a=10", "taken"]
            .iter()
            .map(|c| c.parse().expect("valid config"))
            .collect(),
    };
    let alias = |accesses, conflicts, harmless_conflicts| AliasStats {
        accesses,
        conflicts,
        harmless_conflicts,
    };
    let results = [
        SimResult {
            alias: Some(alias(4993, 77, 5)),
            ..result("gshare \"x\"\\\n\u{1}", 1024, 4993, 321)
        },
        SimResult {
            alias: Some(alias(4993, 0, 0)),
            bht: Some(BhtStats {
                accesses: 4993,
                misses: 12,
            }),
            ..result("PAs", 9000, 4993, 1)
        },
        result("bimodal", 2048, 3, 1),
        // No scored branches: the rate is 0, not NaN, so never `null`.
        result("always-taken", 0, 0, 0),
    ];
    let body = sweep_body(&request, 5000, "src \"id\"\\\t\u{1f}", &results);
    assert_eq!(body, PINNED);
}
