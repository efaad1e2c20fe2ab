//! Golden-output regression tests.
//!
//! Every workload is self-checking against its Rust reference, but both
//! sides live in this repository — a bug introduced symmetrically into the
//! assembly *and* the reference would go unnoticed and silently change
//! every number in EXPERIMENTS.md. These pinned values catch that: they
//! may only change deliberately, together with a regeneration of the
//! experiment results.

use ntp_workloads::{suite, ScalePreset};

#[test]
fn tiny_scale_outputs_are_pinned() {
    let golden: Vec<(&str, Vec<u32>)> = vec![
        ("compress", vec![3051646253, 3048607573, 1985]),
        ("cc", vec![1010092557, 1010092557, 865329741, 865329741]),
        ("go", vec![4075105351, 2033159648]),
        ("jpeg", vec![2858157744, 389189467, 1671184359, 3383516212]),
        ("m88ksim", vec![3402439468, 1682559891]),
        ("xlisp", vec![1302327919, 2262435294]),
    ];
    for (w, (name, expect)) in suite(ScalePreset::Tiny).iter().zip(&golden) {
        assert_eq!(w.name, *name);
        assert_eq!(
            &w.expected_output(),
            expect,
            "{name}: reference output drifted — if intentional, update this \
             golden list AND regenerate EXPERIMENTS.md"
        );
        // And the machine still reproduces it.
        assert_eq!(&w.run_to_halt(50_000_000), expect, "{name}: machine output");
    }
}
