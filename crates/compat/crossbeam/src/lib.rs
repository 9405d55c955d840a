//! Empty offline stand-in for `crossbeam`.
//!
//! Nothing in the workspace uses this crate: the grid executor runs on
//! `std::thread::scope` and one shared counter. `bench` and `themis`
//! still declare it only because `benchmark/Cargo.lock`, the repo
//! benchmark's own lock file, lists it as their dependency, and dropping
//! the declarations would rewrite that file.
