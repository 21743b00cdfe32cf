//! The paper's opening example query (§1):
//!
//! > **Citation sociology**: Find a topic (other than bicycling) within
//! > one link of bicycling pages that is much more frequent than on the
//! > web at large. The answer found by the system described in this
//! > paper is *first aid*.
//!
//! ```sh
//! cargo run --release --example citation_sociology [tiny|small|full]
//! ```
//!
//! This is the kind of question that needs *topical* selection (no
//! keyword can find "pages about first aid"), which is why the system
//! learns topics from examples instead of matching keywords.

use focus_eval::citation_sociology;
use focus_eval::common::Scale;

fn main() {
    let scale = Scale::from_arg(std::env::args().nth(1).as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    println!("crawling cycling, then measuring 1-link topic lifts at {scale:?} scale...\n");
    let lifts = citation_sociology::run(scale);
    citation_sociology::print(&lifts);
    if let Some(top) = lifts.first() {
        println!(
            "\nanswer: {} (lift {:.1}x over its base rate)",
            top.topic, top.lift
        );
    }
}
