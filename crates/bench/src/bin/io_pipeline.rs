//! I/O-pipeline ablation: per-block vs batched windows.
//!
//! Thin wrapper over [`bench::gates::io_pipeline_gate`]; see that module
//! for the two configurations and the ≥ 1.5× regression threshold.
//! Writes the machine-readable report to `BENCH_io.json` (or
//! `--out <path>`) and exits nonzero when the gate fails.
//!
//! ```sh
//! cargo run --release -p bench --bin io_pipeline [-- --quick] [-- --out <path>]
//! ```

use bench::gates::{gate_main, io_pipeline_gate};

fn main() {
    gate_main("BENCH_io.json", io_pipeline_gate)
}
