//! Std-only stand-in for the part of `serde` 1 the Mocha crates use: the
//! data-model traits a binary format implements (`mocha_wire::serbin`),
//! `Serialize`/`Deserialize` for the std types that appear in shared
//! objects, and (feature `derive`) derives for plain structs and enums.
//!
//! What is left out, because nothing in the repository needs it: the
//! `#[serde(...)]` attributes, generic types in the derives, 128-bit
//! integers, self-describing input (derived structs are read as
//! sequences and enum variants by index, which is how `serbin` presents
//! them), and the typed `invalid_type`/`invalid_value` errors, which are
//! folded into `Error::custom`.

#![forbid(unsafe_code)]

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
