//! No-op `Serialize` / `Deserialize` derives.
//!
//! The workspace uses serde derives purely as annotations — every JSON it
//! writes comes from hand-rolled writers such as `themis::spec::json`.
//! These derives therefore expand to nothing,
//! which keeps every `#[derive(Serialize, Deserialize)]` in the tree
//! compiling without the unreachable crates-io registry.

use proc_macro::TokenStream;

/// Accepts and discards a `#[derive(Serialize)]` request.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts and discards a `#[derive(Deserialize)]` request.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
