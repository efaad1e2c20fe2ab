//! # ntp-workloads — six TRISC benchmark programs
//!
//! SpecInt95 is not redistributable and SimpleScalar binaries cannot run
//! here, so this crate provides six hand-written TRISC assembly workloads,
//! one per benchmark the paper evaluates, each engineered to reproduce the
//! control-flow *character* that matters for trace prediction:
//!
//! | name       | analog of | character preserved |
//! |------------|-----------|---------------------|
//! | `compress` | compress  | tight hash-probe loop, small working set |
//! | `cc`       | gcc       | recursive-descent parsing, large path variety |
//! | `go`       | go        | branchy positional evaluation, biggest static-trace set |
//! | `jpeg`     | ijpeg     | long loop-dominated traces (DCT/quantize/RLE) |
//! | `m88ksim`  | m88ksim   | interpreter dispatch via indirect jumps |
//! | `xlisp`    | xlisp     | deep recursive expression evaluation |
//!
//! Every workload is deterministic, self-checking (its `out` stream is
//! compared against a Rust reference implementation in this crate's tests)
//! and scalable via a `rounds` parameter.
//!
//! # Example
//!
//! ```
//! use ntp_workloads::compress;
//! let w = compress::build(1);
//! let out = w.run_to_halt(10_000_000);
//! assert_eq!(out, w.expected_output());
//! ```

#![warn(missing_docs)]

pub mod cc;
pub mod compress;
pub mod go;
pub mod jpeg;
pub mod m88ksim;
pub mod util;
pub mod xlisp;

use ntp_isa::Program;
use ntp_sim::Machine;

/// A benchmark program plus the reference that computes its expected
/// output.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name, matching the paper's benchmark table.
    pub name: &'static str,
    /// Which SpecInt95 benchmark this stands in for, and why.
    pub analog_of: &'static str,
    /// One-line description of the kernel.
    pub description: &'static str,
    /// The assembled program.
    pub program: Program,
    /// The round count the program was built with.
    rounds: u32,
    /// The Rust reference implementation, from a round count to the `out`
    /// values a complete run must produce. Run on demand only, so building
    /// a workload does not pay for it.
    reference: fn(u32) -> Vec<u32>,
}

impl Workload {
    /// The `out` values a complete run must produce, computed by the Rust
    /// reference implementation.
    pub fn expected_output(&self) -> Vec<u32> {
        (self.reference)(self.rounds)
    }

    /// A fresh machine loaded with this workload.
    pub fn machine(&self) -> Machine {
        Machine::new(self.program.clone())
    }

    /// Runs to `halt` (or panics if `budget` instructions pass first) and
    /// returns the output stream.
    ///
    /// # Panics
    ///
    /// Panics on simulation errors or budget exhaustion — both indicate a
    /// workload bug.
    pub fn run_to_halt(&self, budget: u64) -> Vec<u32> {
        let mut m = self.machine();
        let stop = m.run(budget).expect("workload executes without faults");
        assert_eq!(
            stop,
            ntp_sim::StopReason::Halted,
            "{}: instruction budget too small",
            self.name
        );
        m.output().to_vec()
    }
}

/// How large to build the workload suite.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScalePreset {
    /// Seconds-scale runs for tests (hundreds of thousands of
    /// instructions).
    Tiny,
    /// The default experiment scale (several million instructions each).
    Default,
    /// Paper-like scale (tens of millions of instructions each).
    Full,
}

impl ScalePreset {
    /// Stable lowercase name, as accepted by `NTP_SCALE` and reported in
    /// telemetry manifests.
    pub fn name(self) -> &'static str {
        match self {
            ScalePreset::Tiny => "tiny",
            ScalePreset::Default => "default",
            ScalePreset::Full => "full",
        }
    }

    /// Per-workload round counts `(compress, cc, go, jpeg, m88ksim, xlisp)`,
    /// calibrated so Default ≈ 6M instructions and Full ≈ 24M per workload.
    fn rounds(self) -> [u32; 6] {
        match self {
            ScalePreset::Tiny => [2, 2, 2, 4, 2, 2],
            ScalePreset::Default => [56, 15, 12, 320, 46, 16],
            ScalePreset::Full => [224, 60, 48, 1280, 184, 64],
        }
    }
}

/// Builds all six workloads at the given scale, in the paper's table order.
pub fn suite(scale: ScalePreset) -> Vec<Workload> {
    let [r_compress, r_cc, r_go, r_jpeg, r_m88k, r_xlisp] = scale.rounds();
    vec![
        compress::build(r_compress),
        cc::build(r_cc),
        go::build(r_go),
        jpeg::build(r_jpeg),
        m88ksim::build(r_m88k),
        xlisp::build(r_xlisp),
    ]
}

/// Builds one workload by name at the given scale.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn by_name(name: &str, scale: ScalePreset) -> Workload {
    let idx = ["compress", "cc", "go", "jpeg", "m88ksim", "xlisp"]
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown workload `{name}`"));
    suite(scale).swap_remove(idx)
}
