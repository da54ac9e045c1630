//! Every module plants violations of the lib-only clippy gate
//! (scripts/verify.sh, clippy.toml) and an `#[expect]` twin of each that
//! stays silent. There is no line for unseeded randomness:
//! `surveyor_prob::Rng` has no entropy constructor, so none can compile.

pub mod clock;
pub mod expects;
pub mod flow;
pub mod json;
pub mod locks;
pub mod maps;
pub mod testcode;

pub fn first_char(s: &str) -> char {
    s.chars().next().unwrap()
}

pub fn must(v: Option<u32>) -> u32 {
    v.expect("value required")
}

pub fn fail() {
    panic!("library code returns typed errors")
}

pub fn shout(msg: &str) {
    println!("{msg}");
    eprintln!("{msg}");
}

pub fn unfinished() {
    todo!()
}

pub fn unwritten() {
    unimplemented!()
}

pub fn read_raw(bytes: &[u8; 1]) -> u8 {
    // SAFETY: the pointer is to the array's one byte, which `bytes` borrows.
    unsafe { *bytes.as_ptr() }
}

#[expect(clippy::unwrap_used, reason = "twin: a declared invariant")]
pub fn suppressed(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(clippy::print_stdout, reason = "twin: a declared announcement")]
pub fn announce(msg: &str) {
    println!("{msg}");
}
