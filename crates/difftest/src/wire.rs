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
//! Decoded snapshots are additionally pushed through `Fib::from_wire`,
//! and every delta that decodes — a valid patch by construction — is
//! checked to be one and applied to a base table it is re-anchored to,
//! to make sure hostile input can be rejected but never panic the
//! store.

use crate::Failure;
use bgpsim::{Fib, FibBuilder, FibPatch, PatchOp};
use dctopo::DeviceId;
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
    // Half the prefixes share one length, so that a flipped address bit
    // reorders neighbours; built through `FibPatch::new`, the generator
    // cannot emit what the decoder refuses.
    let len = r.range(8, 32) as u8;
    let mut ops: Vec<PatchOp> = Vec::new();
    for _ in 0..r.range(0, 10) {
        let prefix = match r.chance(1, 2) {
            true => Prefix::containing(Ipv4(r.next_u64() as u32), len).expect("len <= 32"),
            false => random_prefix(r),
        };
        if ops.iter().any(|op| op.prefix() == prefix) {
            continue;
        }
        ops.push(match r.chance(1, 4) {
            true => PatchOp::Withdraw(prefix),
            false => PatchOp::Set(DeltaRule {
                prefix,
                next_hops: random_hops(r),
                local: r.chance(1, 4),
            }),
        });
    }
    FibDelta {
        device: r.below(1 << 16) as u32,
        base_hash: r.next_u64(),
        new_hash: r.next_u64(),
        patch: FibPatch::new(ops),
    }
}

/// Any delta the codec accepts carries a patch in canonical form, and
/// applies — once re-anchored to a base holding rules at some of its
/// prefixes — to a canonical table that says what the patch says.
fn check_decoded_delta(r: &mut Rng, mut d: FibDelta) -> Option<String> {
    if FibPatch::new(d.patch.ops().to_vec()) != d.patch {
        return Some(format!("decoded patch is not in canonical form: {:?}", d.patch));
    }
    let mut base = FibBuilder::new(DeviceId(d.device));
    for _ in 0..r.range(0, 6) {
        base.push(random_prefix(r), random_hops(r), false);
    }
    for p in d.patch.prefixes() {
        if r.chance(1, 2) {
            base.push(p, random_hops(r), false);
        }
    }
    let base = base.finish();
    let next = base.patched(&d.patch);
    let sorted = next.entries().windows(2).all(|w| {
        netprim::wire::canonical_order(w[0].prefix, w[1].prefix).is_lt()
    });
    let says = |op: &PatchOp| match (op, next.entry_for(op.prefix())) {
        (PatchOp::Set(rule), Some(e)) => {
            e.local == rule.local && next.next_hops(e) == rule.next_hops.as_slice()
        }
        (PatchOp::Withdraw(_), None) => true,
        _ => false,
    };
    if !sorted || !d.patch.ops().iter().all(says) {
        return Some(format!("{:?} patched {base:?} into {next:?}", d.patch));
    }
    // Anchored to neither table the delta is refused; to both, applied.
    if base.apply_delta(&d).is_ok() {
        return Some(format!("{d:?} applied to a base it does not name"));
    }
    (d.base_hash, d.new_hash) = (base.content_hash(), next.content_hash());
    (base.apply_delta(&d).ok() != Some(next)).then(|| format!("{d:?} did not apply to {base:?}"))
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
    if let Some(msg) = check_decoded_delta(r, d) {
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
        if let Some(msg) = FibDelta::decode(&m).ok().and_then(|d| check_decoded_delta(r, d)) {
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
