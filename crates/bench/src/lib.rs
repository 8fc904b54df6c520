//! Shared helpers for the experiment regenerators and ablation binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the DSN'13 paper
//! (see "Experiment binaries" in `README.md` for the index); this library
//! holds the paper's published reference values and small formatting
//! utilities so every binary prints paper-vs-measured side by side.

/// A Table VII row as published in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Row label (abbreviated).
    pub name: &'static str,
    /// Availability as printed in the paper.
    pub availability: f64,
    /// Number of nines as printed in the paper.
    pub nines: f64,
}

/// The paper's Table VII, verbatim.
pub const PAPER_TABLE_VII: [PaperRow; 8] = [
    PaperRow { name: "Cloud system with one machine", availability: 0.9842914, nines: 1.80 },
    PaperRow {
        name: "Cloud system with two machines in one data center",
        availability: 0.9899101,
        nines: 1.99,
    },
    PaperRow {
        name: "Cloud system with four machines in one data center",
        availability: 0.9900631,
        nines: 2.00,
    },
    PaperRow {
        name: "Baseline architecture: Rio de janeiro - Brasilia",
        availability: 0.9997317,
        nines: 3.57,
    },
    PaperRow {
        name: "Baseline architecture: Rio de janeiro - Recife",
        availability: 0.9995968,
        nines: 3.39,
    },
    PaperRow {
        name: "Baseline architecture: Rio de janeiro - NewYork",
        availability: 0.9987753,
        nines: 2.91,
    },
    PaperRow {
        name: "Baseline architecture: Rio de janeiro - Calcutta",
        availability: 0.9977486,
        nines: 2.64,
    },
    PaperRow {
        name: "Baseline architecture: Rio de janeiro - Tokio",
        availability: 0.9972643,
        nines: 2.56,
    },
];

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a ratio as a signed percentage string.
pub fn pct_delta(measured: f64, paper: f64) -> String {
    format!("{:+.3}%", (measured - paper) / paper * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_consistent_with_nines_definition() {
        for row in PAPER_TABLE_VII {
            let nines = -(1.0 - row.availability).log10();
            assert!(
                (nines - row.nines).abs() < 0.02,
                "{}: printed nines {} vs derived {nines}",
                row.name,
                row.nines
            );
        }
    }

    #[test]
    fn paper_rows_ordered_single_dc_then_two_dc() {
        assert!(PAPER_TABLE_VII[0].availability < PAPER_TABLE_VII[1].availability);
        assert!(PAPER_TABLE_VII[1].availability < PAPER_TABLE_VII[2].availability);
        // Two-DC rows decrease with distance.
        for w in PAPER_TABLE_VII[3..].windows(2) {
            assert!(w[0].availability > w[1].availability);
        }
    }

    #[test]
    fn pct_delta_formats() {
        assert_eq!(pct_delta(1.01, 1.0), "+1.000%");
    }
}
