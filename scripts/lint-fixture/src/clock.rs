//! Clock reads.

use std::time::{Instant, SystemTime};

pub fn stamp() -> Instant {
    Instant::now()
}

pub fn epoch() -> SystemTime {
    SystemTime::now()
}

#[expect(clippy::disallowed_methods, reason = "twin: feeds a histogram only")]
pub fn stamp_declared() -> Instant {
    Instant::now()
}
