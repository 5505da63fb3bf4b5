//! Frozen pre-rewrite implementations, kept verbatim as oracles for
//! the optimized simulator and trie engine. Nothing here is reachable
//! from a shipped library or selectable at run time.

pub mod sim;
pub mod trie;
