//! Self-checking fixtures for the rules sma-lint handed to clippy.
//!
//! Each function commits the violation a retired token rule used to
//! catch, under `#[expect(<lint>, reason = "fixture: <old rule> must
//! fire")]`. If clippy stops catching it, the expectation goes unfulfilled
//! and `cargo clippy --workspace --all-targets -- -D warnings` fails, so
//! the clippy step is the gate. Plain `cargo build` and `cargo test`
//! ignore clippy expectations. The functions are `pub` so they are not
//! dead code; nothing calls them.
//!
//! The header is the product library header plus the codec-module one,
//! as `sma-lint`'s `U1-crate-header` check requires them.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

/// Stands in for `sma_storage::page::SlotId`: the alias hides the width.
pub type SlotId = u16;

#[expect(clippy::unwrap_used, reason = "fixture: P1-unwrap must fire")]
pub fn p1_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "fixture: P2-expect must fire")]
pub fn p2_expect(x: Option<u8>) -> u8 {
    x.expect("present")
}

#[expect(clippy::panic, reason = "fixture: P3-panic must fire")]
pub fn p3_panic() {
    panic!("boom")
}

#[expect(clippy::todo, reason = "fixture: P3-panic must fire")]
pub fn p3_todo() {
    todo!()
}

#[expect(clippy::unimplemented, reason = "fixture: P3-panic must fire")]
pub fn p3_unimplemented() {
    unimplemented!()
}

#[expect(
    clippy::indexing_slicing,
    reason = "fixture: P4-literal-index must fire"
)]
pub fn p4_literal_index(buf: &[u8]) -> u8 {
    buf[0]
}

#[expect(clippy::print_stdout, reason = "fixture: U2-debug-output must fire")]
pub fn u2_println() {
    println!("debug");
}

#[expect(clippy::print_stderr, reason = "fixture: U2-debug-output must fire")]
pub fn u2_eprintln() {
    eprintln!("debug");
}

#[expect(clippy::dbg_macro, reason = "fixture: U2-debug-output must fire")]
pub fn u2_dbg(x: u8) -> u8 {
    dbg!(x)
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "fixture: U3-narrowing-cast must fire"
)]
pub fn u3_narrowing_cast(n: usize) -> u16 {
    n as u16
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "fixture: U3-narrowing-cast must fire through a type alias"
)]
pub fn u3_alias_cast(n: usize) -> SlotId {
    n as SlotId
}

#[expect(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "fixture: W1-bare-allow must fire"
)]
pub fn w1_reasonless_allow() {
    #[allow(unused_variables)]
    let unused = 1;
}

#[expect(
    clippy::allow_attributes_without_reason,
    reason = "fixture: W1-bare-allow must fire"
)]
pub fn w1_reasonless_expect() {
    #[expect(unused_variables)]
    let unused = 1;
}
