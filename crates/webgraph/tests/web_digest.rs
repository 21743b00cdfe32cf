//! The generated web, pinned bit for bit.
//!
//! Crawl goldens, the figures and every benchmark harvest rest on
//! `WebGraph::generate` producing the same pages for the same config.
//! These digests hash everything a page carries (oid, URL, server, topic,
//! terms, outlinks, kind, failure), plus the training examples and the
//! keyword-search start sets drawn from the same term model. The
//! constants were recorded before the generator drew documents on more
//! than one thread; a change that moves one has changed the web.

use focus_types::ClassId;
use focus_webgraph::{search, FailureMode, PageKind, WebConfig, WebGraph};

/// FNV-1a, 64-bit: a hash whose value does not depend on the toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn web_digest(g: &WebGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.len() as u64);
    for p in g.pages() {
        h.u64(p.oid.raw());
        h.u64(p.url.len() as u64);
        h.bytes(p.url.as_bytes());
        h.u64(p.server.raw() as u64);
        h.u64(p.topic.raw() as u64);
        h.u64(p.terms.num_terms() as u64);
        for (t, c) in p.terms.iter() {
            h.u64(t.raw() as u64);
            h.u64(c as u64);
        }
        h.u64(p.outlinks.len() as u64);
        for o in &p.outlinks {
            h.u64(o.raw());
        }
        h.u64(match p.kind {
            PageKind::Content => 0,
            PageKind::Hub => 1,
            PageKind::Universal => 2,
        });
        h.u64(match p.failure {
            FailureMode::None => 0,
            FailureMode::Dead => 1,
            FailureMode::Timeout => 2,
            FailureMode::Malformed => 3,
        });
    }
    h.0
}

/// Five examples per topic and a ten-page start set per topic, as the
/// benchmark's world builds them.
fn examples_and_seeds_digest(g: &WebGraph, seed: u64) -> u64 {
    let mut h = Fnv::new();
    for c in g.taxonomy().all().filter(|&c| c != ClassId::ROOT) {
        for d in g.example_docs(c, 5, seed ^ 0x5eed) {
            h.u64(d.id.raw());
            for (t, n) in d.terms.iter() {
                h.u64(t.raw() as u64);
                h.u64(n as u64);
            }
        }
        for o in search::topic_start_set(g, c, 10) {
            h.u64(o.raw());
        }
    }
    h.0
}

fn mid(seed: u64) -> WebConfig {
    WebConfig {
        seed,
        pages_per_topic: 400,
        servers_per_topic: 16,
        ..WebConfig::default()
    }
}

#[test]
fn the_tiny_web_is_pinned() {
    let g = WebGraph::generate(WebConfig::tiny(9));
    assert_eq!(g.len(), 1707);
    assert_eq!(web_digest(&g), 0xf6ad_e5e3_8d54_9648);
}

#[test]
fn a_mid_size_web_its_examples_and_its_start_sets_are_pinned() {
    let g = WebGraph::generate(mid(23));
    assert_eq!(g.len(), 11_041);
    assert_eq!(web_digest(&g), 0x69ee_f0e1_0fad_30d9);
    assert_eq!(examples_and_seeds_digest(&g, 23), 0xa5bf_3ff0_540a_1de7);
}
