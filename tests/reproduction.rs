//! The quick paper reproduction, pinned in the root test suite: the
//! FNV-1a 64 digest of every exhibit as `all --quick --seed 1996`
//! prints it (`Paper::render` at 50,000 branches, tiers up to 2^10,
//! seed 1996). `crates/bench/tests/cli.rs` pins the same digest on
//! the binary's stdout, and the benchmark's `paper-repro` workload
//! checks it too.

use bpred::sim::experiments::{self, ExperimentOptions};
use bpred::trace::fnv::fnv64;

#[test]
fn quick_paper_renders_the_pinned_reproduction() {
    let opts = ExperimentOptions {
        branches: Some(50_000),
        max_bits: 10,
        seed: 1996,
        ..ExperimentOptions::default()
    };
    let digest = fnv64(experiments::paper(&opts, None).render().as_bytes());
    assert_eq!(
        digest, 0x45ef_13f0_33da_98f6,
        "the quick paper rendered digest {digest:#018x}"
    );
}
