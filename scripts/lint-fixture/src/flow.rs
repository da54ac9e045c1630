//! A fresh deadline, an `unreachable!` and a loop over a hash set.

use std::collections::HashSet;
use std::time::Duration;

use surveyor_server::Deadline;

pub fn handle(query: &str) -> u64 {
    let fresh = Deadline::starting_now(Duration::from_millis(50));
    score(query, &fresh)
}

pub fn handle_probe(query: &str) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "twin: a probe's own budget")]
    let probe = Deadline::starting_now(Duration::MAX);
    score(query, &probe)
}

fn score(query: &str, deadline: &Deadline) -> u64 {
    query.len() as u64 + u64::from(deadline.expired())
}

pub fn entry(v: &[u32]) -> u32 {
    match v.first() {
        Some(first) => *first,
        None => unreachable!("callers pass a non-empty slice"),
    }
}

#[expect(
    clippy::unreachable,
    reason = "twin: every caller guards with is_empty"
)]
pub fn entry_checked(v: &[u32]) -> u32 {
    match v.first() {
        Some(first) => *first,
        None => unreachable!("callers check emptiness"),
    }
}

pub fn render(keys: &HashSet<String>) -> String {
    let mut out = String::new();
    for key in keys {
        out.push_str(key);
    }
    out
}

pub fn render_total(counts: &HashSet<u32>) -> u32 {
    let mut total = 0;
    #[expect(
        clippy::iter_over_hash_type,
        reason = "twin: a sum, so the order cannot show"
    )]
    for count in counts {
        total += count;
    }
    total
}
