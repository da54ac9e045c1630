//! Lock acquisitions: each one in a lib is a declared exception.

use std::sync::{Mutex, RwLock};

pub fn merge_shard(shared: &Mutex<Vec<String>>, shard: Vec<String>) {
    if let Ok(mut docs) = shared.lock() {
        docs.extend(shard);
    }
}

pub fn drain(shared: &Mutex<Vec<u32>>) -> usize {
    shared.lock().map(|v| v.len()).unwrap_or(0)
}

pub fn snapshot(table: &RwLock<Vec<u32>>) -> usize {
    table.read().map(|v| v.len()).unwrap_or(0)
}

pub fn publish(table: &RwLock<Vec<u32>>, value: u32) {
    if let Ok(mut v) = table.write() {
        v.push(value);
    }
}

/// A second lock under a declared first needs its own reason.
pub fn nested(index: &RwLock<Vec<u32>>, props: &RwLock<Vec<u32>>) {
    #[expect(clippy::disallowed_methods, reason = "twin: the outer lock")]
    let index = index.write();
    let props = props.write();
    drop((index, props));
}

#[expect(
    clippy::disallowed_methods,
    reason = "twin: once per run, outside the claim loop"
)]
pub fn allowed(shared: &Mutex<Vec<u32>>) -> usize {
    shared.lock().map(|v| v.len()).unwrap_or(0)
}
