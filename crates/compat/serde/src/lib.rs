//! Offline stand-in for `serde`.
//!
//! The workspace only ever writes `#[derive(Serialize, Deserialize)]` as a
//! marker — no generic code is bounded on serde traits, and the JSON the
//! workspace writes comes from hand-rolled writers (`themis::spec::json`,
//! `CampaignResult::to_json` and the BENCH artifact writers). This crate
//! re-exports the no-op derives so those annotations keep compiling
//! without network access to crates-io.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
