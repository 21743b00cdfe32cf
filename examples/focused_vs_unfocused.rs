//! Figure 5 live: run the same start set under the unfocused baseline and
//! the soft-focus policy, and watch the harvest curves diverge.
//!
//! ```sh
//! cargo run --release --example focused_vs_unfocused [tiny|small|full]
//! ```

use focus_eval::common::Scale;
use focus_eval::fig5_harvest;

fn main() {
    let scale = Scale::from_arg(std::env::args().nth(1).as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!("running Figure 5 at {scale:?} scale (same start set, two policies)\n");
    let f = fig5_harvest::run(scale);
    fig5_harvest::print(&f);
    println!(
        "\nThe unfocused crawler 'is completely lost within the next hundred page \
         fetches' (§3.4); the focused crawler keeps acquiring relevant pages. \
         Relevance here is judged by the classifier on pages *after* they were \
         chosen, so the curves evaluate the architecture, not the classifier."
    );
}
