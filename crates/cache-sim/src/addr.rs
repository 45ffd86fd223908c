//! Address types.
//!
//! The simulated programs live in a single flat byte-addressed address space.
//! Caches operate on aligned blocks (lines): a byte address shifted right by
//! `log2(line bytes)`.

/// A byte address in the simulated program's address space.
pub type Addr = u64;

/// A cache-block (line) number: the byte address divided by the line size.
pub type BlockAddr = u64;
