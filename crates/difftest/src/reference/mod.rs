//! Frozen pre-rewrite implementations, kept verbatim as oracles for
//! the optimized simulator, trie engine and contract generator. Nothing here is reachable
//! from a shipped library or selectable at run time.

pub mod contracts;
pub mod sim;
pub mod trie;
