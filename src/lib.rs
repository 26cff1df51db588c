//! Root package: examples and integration tests live here. They import
//! the workspace crates directly; this library exports nothing.
#![forbid(unsafe_code)]
