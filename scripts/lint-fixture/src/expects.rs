//! Expectations that do not hold.

#[expect(clippy::unwrap_used, reason = "suppresses nothing, so it is reported")]
pub fn clean() -> u32 {
    7
}

#[expect(clippy::no_such_rule, reason = "names no lint, so it is reported")]
pub fn misspelled() -> u32 {
    9
}
