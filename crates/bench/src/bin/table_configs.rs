//! Experiment T-config: the default CMP configurations (the paper's
//! "CMP configurations studied" — 240 mm² die, 1–32 cores, 90 nm → 32 nm).
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin table_configs
//! cargo run --release -p pdfws-bench --bin table_configs -- --list
//! ```
//!
//! Accepts the harness's uniform flags for consistency: `--list` prints the
//! scheduler and workload spec grammars; `--quick`, `--threads N` and
//! `--workload <spec>` are validated but no-ops here — the table is derived
//! analytically, nothing is simulated.

use pdfws_bench::{config_table, emit_tables, Cli};
use pdfws_report::experiments::CONFIGS;

fn main() {
    let cli = Cli::parse(
        "table_configs",
        "The paper's 'CMP configurations studied' table (240 mm2 die, 1-32 cores) — analytic, nothing is simulated",
        &[],
    );
    cli.ignore_workloads(0, "this table is configuration-only");
    if let Some(spec) = &cli.memsys {
        eprintln!(
            "note: this table lists the baseline channel parameters; --memsys {} changes \
             simulated cells, not this analytic table",
            spec.canonical()
        );
    }
    if cli.trace.enabled() {
        eprintln!(
            "note: this table is derived analytically — nothing is simulated, so \
             --trace/--trace-summary produce no timeline here"
        );
    }
    let table = config_table(CONFIGS.at(cli.quick).cores);
    emit_tables(&cli, &[&table]);
}
