//! # majorcan-bench — the reproduction harness
//!
//! Shared machinery behind the reproduction binaries: every table and
//! figure of the MajorCAN paper has a regeneration entry point here.
//!
//! | Paper artifact | Module | Binary |
//! |----------------|--------|--------|
//! | Table 1        | [`table1_report`] | `cargo run -p majorcan-bench --bin table1` |
//! | Figs. 1a–1c, 2, 3a/3b, 4, 5 | [`figures`] | `… --bin figures -- <fig>` |
//! | §5/§6 overhead | [`overhead`] | `… --bin overhead` |
//! | Eq. 4/5 validation | [`montecarlo`] | `… --bin montecarlo` |
//! | §5 headline (m-error tolerance) | [`sweep`] | `… --bin sweep` |
//! | §2.2 CAN5 (total order) | [`figures::total_order_demo`] | `… --bin figures -- total-order` |
//! | E16 single-error atlas | [`atlas`] | `… --bin atlas` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod cli;
pub mod figures;
pub mod jobs;
pub mod montecarlo;
pub mod overhead;
pub mod sweep;

/// Renders Table 1 with the paper's reference parameters (delegates to
/// `majorcan-analysis`).
pub fn table1_report() -> String {
    majorcan_analysis::render_table1(&majorcan_analysis::NetworkParams::paper_reference())
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_report_renders() {
        let t = super::table1_report();
        assert!(t.contains("Table 1"));
    }
}
