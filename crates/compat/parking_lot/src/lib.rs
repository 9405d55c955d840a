//! Empty offline stand-in for `parking_lot`.
//!
//! Nothing in the workspace uses this crate. `simdfs` and `bench` still
//! declare it only because `benchmark/Cargo.lock`, the repo benchmark's
//! own lock file, lists it as their dependency, and dropping the
//! declarations would rewrite that file.
