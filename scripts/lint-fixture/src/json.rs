//! `#[derive(Deserialize)]`: outputs are write-only JSON, so a typed
//! reader needs a declared reason.

use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
pub struct Row {
    pub name: String,
}

#[expect(clippy::disallowed_macros, reason = "twin: a report a tool reads back")]
#[derive(Serialize, Deserialize)]
pub struct Report {
    pub runs: u64,
}
