//! `std::collections::HashMap`, and the server's and the wire decoder's
//! panics.

use std::collections::HashMap;

pub fn tally(words: &[&str]) -> usize {
    let out: std::collections::HashMap<&str, u32> = words.iter().map(|w| (*w, 1)).collect();
    out.len()
}

pub fn counters() -> std::collections::HashMap<String, u64> {
    Default::default()
}

pub fn parse_status(head: &str) -> u16 {
    head.split(' ').nth(1).unwrap().parse().unwrap()
}

pub fn section_lengths(header: &[u8]) -> std::collections::HashMap<String, usize> {
    let tag = std::str::from_utf8(&header[..4]).unwrap();
    [(tag.to_owned(), header.len())].into_iter().collect()
}

#[expect(
    clippy::disallowed_types,
    reason = "twin: a lookup that is never iterated"
)]
pub fn lookup(m: &HashMap<String, u32>, key: &str) -> u32 {
    m.get(key).copied().unwrap_or(0)
}
