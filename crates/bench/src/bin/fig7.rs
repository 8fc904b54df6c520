//! Regenerates the paper's **Figure 7** — the availability *increase* (in
//! number of nines) of every case-study configuration over its per-pair
//! baseline (α = 0.35, disaster mean time = 100 years).
//!
//! Thin wrapper over the scenario engine: the 45 configurations (5 city
//! pairs × 3 α × 3 disaster means) come from the bundled `fig7` catalog;
//! the five baselines are shared grid points, so the executor's dedup
//! serves them from one evaluation each. Expect ~10 minutes of wall-clock
//! time in release mode. Equivalent CLI: `dtc fig7`.
//!
//! ```sh
//! cargo run --release -p dtc-bench --bin fig7
//! ```

use dtc_engine::cli::render_fig7_grid;
use dtc_engine::prelude::*;

fn main() {
    let catalog = dtc_engine::catalogs::fig7();
    let scenarios = catalog.expand().expect("bundled catalog expands");
    let opts =
        RunOptions { threads: dtc_engine::resolve_threads(0).min(4), ..Default::default() };
    eprintln!("evaluating {} configurations on {} threads…", scenarios.len(), opts.threads);
    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let result = run_batch(&scenarios, &cache, &opts);
    eprintln!("{}", render_summary(&result));

    print!("{}", render_fig7_grid(&scenarios, &result.outcomes));

    let nines_at = |sec: &str, alpha: f64, years: f64| -> f64 {
        scenarios
            .iter()
            .position(|s| {
                s.secondary.as_deref() == Some(sec)
                    && s.alpha == Some(alpha)
                    && s.disaster_years == Some(years)
            })
            .and_then(|i| result.outcomes[i].steady().map(|r| r.nines))
            .unwrap_or(f64::NAN)
    };
    // Derive the axes from the expanded catalog (first-appearance order) so
    // the shape checks follow fig7.toml if its grid is ever edited.
    fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
        items.fold(Vec::new(), |mut acc, x| {
            if !acc.contains(&x) {
                acc.push(x);
            }
            acc
        })
    }
    let pairs = distinct(scenarios.iter().filter_map(|s| s.secondary.as_deref()));
    let alphas = distinct(scenarios.iter().filter_map(|s| s.alpha));
    let years = distinct(scenarios.iter().filter_map(|s| s.disaster_years));

    // The paper's headline observations, checked mechanically.
    println!("\nShape checks (paper Section V):");
    let check = |label: &str, ok: bool| {
        println!("  [{}] {label}", if ok { "ok" } else { "VIOLATED" });
    };
    // 1. Best configuration: Brasília, α = 0.45, 300-year disasters.
    let mut best: (f64, String) = (f64::NEG_INFINITY, String::new());
    for &pair in &pairs {
        for &a in &alphas {
            for &y in &years {
                let n = nines_at(pair, a, y);
                if n > best.0 {
                    best = (n, format!("{pair} α={a} disaster={y}y"));
                }
            }
        }
    }
    check(
        &format!("highest availability is Brasilia/α=0.45/300y (got {})", best.1),
        best.1.contains("Brasilia") && best.1.contains("0.45") && best.1.contains("300"),
    );
    // 2. Δnines from α grows with distance (network dominates far pairs).
    let alpha_gain = |pair: &str| nines_at(pair, 0.45, 100.0) - nines_at(pair, 0.35, 100.0);
    check(
        "α improvement larger for Tokio than for Brasilia",
        alpha_gain("Tokio") > alpha_gain("Brasilia"),
    );
    // 3. Monotone in both knobs for every pair.
    let monotone = pairs.iter().all(|pair| {
        alphas.windows(2).all(|aw| {
            years.iter().all(|&y| nines_at(pair, aw[1], y) >= nines_at(pair, aw[0], y) - 1e-6)
        }) && years.windows(2).all(|yw| {
            alphas.iter().all(|&a| nines_at(pair, a, yw[1]) >= nines_at(pair, a, yw[0]) - 1e-6)
        })
    });
    check("availability monotone in α and disaster mean time for every pair", monotone);
}
