//! Empty stand-in: the Mocha crates list `bytes` as a dependency but use
//! nothing from it.

#![forbid(unsafe_code)]
