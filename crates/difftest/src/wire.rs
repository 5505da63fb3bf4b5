//! Oracle: the wire codec under round trips, truncation, and mutation.
//!
//! The codec has no padding and no redundant encodings, so two exact
//! invariants hold and are checked here:
//!
//! * `decode(encode(x)) == x` for every value;
//! * for arbitrary bytes, `decode` either fails cleanly or returns a
//!   value whose re-encoding is byte-for-byte the input (canonicity) —
//!   in particular every strict truncation of a valid encoding fails.
//!
//! Decoded snapshots are additionally pushed through `Fib::from_wire`
//! and decoded deltas through `FibPatch::try_from_delta` — a frame the
//! codec accepts may name a prefix any number of times — to make sure
//! hostile input can be rejected but never panic the store.

use crate::Failure;
use bgpsim::{Fib, FibPatch, PatchOp};
use netprim::wire::{DeltaRule, FibDelta, WireEntry, WireSnapshot};
use netprim::{Ipv4, Prefix};
use simnet::rng::Rng;

fn random_prefix(r: &mut Rng) -> Prefix {
    let len = r.range(0, 32) as u8;
    Prefix::containing(Ipv4(r.next_u64() as u32), len).expect("len <= 32")
}

fn random_hops(r: &mut Rng) -> Vec<Ipv4> {
    (0..r.range(0, 3)).map(|_| Ipv4(r.next_u64() as u32)).collect()
}

fn random_snapshot(r: &mut Rng) -> WireSnapshot {
    WireSnapshot {
        device: r.below(1 << 16) as u32,
        entries: (0..r.range(0, 8))
            .map(|_| WireEntry {
                prefix: random_prefix(r),
                next_hops: random_hops(r),
            })
            .collect(),
    }
}

fn random_delta(r: &mut Rng) -> FibDelta {
    // A third of the prefixes come from a pool of three, so that one
    // frame names a prefix in several arms, or twice in one.
    let pool: Vec<Prefix> = (0..3).map(|_| random_prefix(r)).collect();
    let prefix = |r: &mut Rng| match r.chance(1, 3) {
        true => pool[r.below(3) as usize],
        false => random_prefix(r),
    };
    let rule = |r: &mut Rng| DeltaRule {
        prefix: prefix(r),
        next_hops: random_hops(r),
        local: r.chance(1, 4),
    };
    FibDelta {
        device: r.below(1 << 16) as u32,
        base_hash: r.next_u64(),
        new_hash: r.next_u64(),
        added: (0..r.range(0, 4)).map(|_| rule(r)).collect(),
        modified: (0..r.range(0, 4)).map(|_| rule(r)).collect(),
        removed: (0..r.range(0, 4)).map(|_| prefix(r)).collect(),
    }
}

/// Any delta the codec accepts reads as a patch or as a typed error,
/// never a panic: only rules that disagree on one prefix are refused,
/// and a patch decides each named prefix once — as the first rule
/// naming it (a re-add wins over its removal), else as a withdrawal.
fn check_delta_as_patch(d: &FibDelta) -> Option<String> {
    let canon = |r: &DeltaRule| {
        let mut hops = r.next_hops.clone();
        hops.sort_unstable();
        hops.dedup();
        (r.prefix, hops, r.local)
    };
    let rules: Vec<_> = d.added.iter().chain(&d.modified).map(canon).collect();
    let conflict = rules.iter().any(|a| rules.iter().any(|b| a.0 == b.0 && a != b));
    let Ok(patch) = FibPatch::try_from_delta(d) else {
        return (!conflict).then(|| format!("conflict-free delta refused: {d:?}"));
    };
    let mut named: Vec<Prefix> = d.touched_prefixes().collect();
    named.sort_unstable();
    named.dedup();
    let mut decided: Vec<Prefix> = patch.prefixes().collect();
    decided.sort_unstable();
    let nets = |op: &PatchOp| match op {
        PatchOp::Set(r) => rules.iter().find(|x| x.0 == r.prefix) == Some(&canon(r)),
        PatchOp::Withdraw(p) => rules.iter().all(|x| x.0 != *p),
    };
    (conflict || decided != named || !patch.ops().iter().all(nets))
        .then(|| format!("{d:?} read as {patch:?}"))
}

/// The canonicity invariant on arbitrary bytes, for one codec.
fn check_mutated<T, D, E>(bytes: &[u8], decode: D, encode: E, what: &str) -> Option<String>
where
    D: Fn(&[u8]) -> Result<T, netprim::ParseError>,
    E: Fn(&T) -> Vec<u8>,
{
    if let Ok(v) = decode(bytes) {
        let re = encode(&v);
        if re != bytes {
            return Some(format!(
                "{what}: mutated bytes decoded to a value that re-encodes differently \
                 ({} vs {} bytes, first diff at {:?})",
                re.len(),
                bytes.len(),
                re.iter().zip(bytes).position(|(a, b)| a != b)
            ));
        }
    }
    None
}

fn mutate(r: &mut Rng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..r.range(1, 4) {
        let i = r.below(bytes.len() as u64) as usize;
        bytes[i] ^= (1 << r.below(8)) as u8;
    }
}

fn check_snapshot(r: &mut Rng) -> Option<String> {
    let s = random_snapshot(r);
    let bytes = s.encode();

    match WireSnapshot::decode(&bytes) {
        Ok(back) if back == s => {}
        Ok(back) => return Some(format!("snapshot round trip changed value: {s:?} -> {back:?}")),
        Err(e) => return Some(format!("snapshot failed to decode its own encoding: {e}")),
    }
    for cut in 0..bytes.len() {
        if WireSnapshot::decode(&bytes[..cut]).is_ok() {
            return Some(format!(
                "snapshot truncated to {cut}/{} bytes decoded successfully",
                bytes.len()
            ));
        }
    }
    for _ in 0..8 {
        let mut m = bytes.to_vec();
        mutate(r, &mut m);
        if let Some(msg) = check_mutated(
            &m,
            WireSnapshot::decode,
            |v: &WireSnapshot| v.encode().to_vec(),
            "snapshot",
        ) {
            return Some(msg);
        }
        // The store-side constructor must reject or accept, never panic,
        // and an accepted table must re-export only entries it was given.
        if let Ok(snap) = WireSnapshot::decode(&m) {
            if let Ok(fib) = Fib::from_wire(&snap) {
                if fib.len() != snap.entries.len() {
                    return Some(format!(
                        "from_wire accepted a snapshot with {} entries but kept {}",
                        snap.entries.len(),
                        fib.len()
                    ));
                }
            }
        }
    }
    None
}

fn check_delta(r: &mut Rng) -> Option<String> {
    let d = random_delta(r);
    let bytes = d.encode();

    match FibDelta::decode(&bytes) {
        Ok(back) if back == d => {}
        Ok(back) => return Some(format!("delta round trip changed value: {d:?} -> {back:?}")),
        Err(e) => return Some(format!("delta failed to decode its own encoding: {e}")),
    }
    if let Some(msg) = check_delta_as_patch(&d) {
        return Some(msg);
    }
    for cut in 0..bytes.len() {
        if FibDelta::decode(&bytes[..cut]).is_ok() {
            return Some(format!(
                "delta truncated to {cut}/{} bytes decoded successfully",
                bytes.len()
            ));
        }
    }
    for _ in 0..8 {
        let mut m = bytes.to_vec();
        mutate(r, &mut m);
        if let Some(msg) = check_mutated(
            &m,
            FibDelta::decode,
            |v: &FibDelta| v.encode().to_vec(),
            "delta",
        ) {
            return Some(msg);
        }
        if let Some(msg) = FibDelta::decode(&m).ok().as_ref().and_then(check_delta_as_patch) {
            return Some(msg);
        }
    }
    // The two formats must not be confusable.
    if FibDelta::decode(&WireSnapshot::encode(&random_snapshot(r))).is_ok() {
        return Some("a snapshot decoded as a delta".into());
    }
    None
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    if let Some(summary) = check_snapshot(&mut r).or_else(|| check_delta(&mut r)) {
        // The codec cases are already tiny; the seed itself is the
        // minimized reproduction.
        return Err(Failure {
            summary,
            minimized: "(wire case fully determined by seed; rerun with --seed)".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_sweep_is_clean() {
        for seed in 0..32 {
            assert!(run(seed).is_ok(), "wire oracle failed at seed {seed}");
        }
    }
}
