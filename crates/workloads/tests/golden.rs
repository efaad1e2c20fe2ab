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

/// The assembled program images of the `default` preset, pinned by their
/// FNV-1a 64 digest and length. The `.ntc` cache key hashes these images,
/// so any change to the assembler or the workload generators that moves a
/// single byte shows up here first (and would silently invalidate every
/// cached capture).
#[test]
fn default_preset_program_images_are_pinned() {
    let golden: [(&str, u64, usize); 6] = [
        ("compress", 0xa875_578f_45e5_09e0, 37_284),
        ("cc", 0x5f92_8744_3673_7ba5, 33_615),
        ("go", 0x8fa9_322d_86e0_956f, 2_084),
        ("jpeg", 0x7345_f2fd_8cab_0e07, 2_248),
        ("m88ksim", 0x0605_6777_7c52_bd4f, 2_282),
        ("xlisp", 0x7fc3_1ead_b113_912e, 231_774),
    ];
    for (w, (name, digest, len)) in suite(ScalePreset::Default).iter().zip(golden) {
        assert_eq!(w.name, name);
        let image = w.program.to_image();
        assert_eq!(
            (ntp_hash::fnv64(&image), image.len()),
            (digest, len),
            "{name}: program image changed"
        );
    }
}
