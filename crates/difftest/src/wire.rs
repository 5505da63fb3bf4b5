//! Oracle: the wire codec under round trips, truncation, and mutation.
//!
//! Both frames have no padding and no redundant encodings. For a `FIB1`
//! image — a random table through [`FibBuilder`], then `to_wire` — the
//! reader, the image hash and the decode must agree:
//!
//! * (a) `Fib::from_wire` accepts an image exactly when its
//!   `content_hash` does, and the hash is the decoded table's;
//! * (b) an accepted image re-encodes byte for byte;
//! * (c) every strict truncation is refused;
//! * (d) bit flips are refused or satisfy (a), (b) and (e); two
//!   adjacent entries swapped, an entry duplicated and a hop pair
//!   swapped are each refused with their own named cause;
//! * (e) the decode is `==`, pool layout included, to a builder fed
//!   the image's entries one by one.
//!
//! For a `FIBD` delta, `decode(encode(x)) == x`, arbitrary bytes decode
//! to a value that re-encodes to them or fail cleanly, and every delta
//! that decodes — a valid patch by construction — is checked to be one
//! and applied to a base table it is re-anchored to, to make sure
//! hostile input can be rejected but never panic the store.

use crate::Failure;
use bgpsim::{Fib, FibBuilder, FibPatch, PatchOp};
use dctopo::DeviceId;
use netprim::wire::{DeltaRule, FibDelta, WireSnapshot};
use netprim::{Ipv4, Prefix};
use simnet::rng::Rng;

fn random_prefix(r: &mut Rng) -> Prefix {
    let len = r.range(0, 32) as u8;
    Prefix::containing(Ipv4(r.next_u64() as u32), len).expect("len <= 32")
}

fn random_hops(r: &mut Rng) -> Vec<Ipv4> {
    (0..r.range(0, 3)).map(|_| Ipv4(r.next_u64() as u32)).collect()
}

/// A random table through the builder, pushed in random order: half
/// the prefixes share one length, so that a flipped address bit
/// reorders neighbours, and hop sets come from a pool with two sets of
/// each size, so that equal sizes are not equal sets. No hops means
/// local, as on the wire.
fn random_table(r: &mut Rng) -> Fib {
    let len = r.range(8, 32) as u8;
    let pool: Vec<Vec<Ipv4>> = [0, 1, 1, 2, 2, 3]
        .iter()
        .map(|&n| (0..n).map(|_| Ipv4(r.next_u64() as u32)).collect())
        .collect();
    let mut b = FibBuilder::new(DeviceId(r.below(1 << 16) as u32));
    for _ in 0..r.range(0, 12) {
        let prefix = match r.chance(1, 2) {
            true => Prefix::containing(Ipv4(r.next_u64() as u32), len).expect("len <= 32"),
            false => random_prefix(r),
        };
        let hops = r.pick(&pool).clone();
        let local = hops.is_empty();
        b.push(prefix, hops, local);
    }
    b.finish()
}

/// (a), (b) and (e) on one image; `Ok(true)` when it is accepted.
fn check_image(bytes: &[u8]) -> Result<bool, String> {
    let Ok(image) = WireSnapshot::from_bytes(bytes) else {
        return Ok(false);
    };
    let fib = match (image.content_hash(), Fib::from_wire(&image)) {
        (Err(a), Err(b)) if a == b => return Ok(false),
        (Ok(hash), Ok(fib)) if hash == fib.content_hash() => fib,
        (hash, fib) => return Err(format!("image hash {hash:?}, decode {fib:?}")),
    };
    if fib.to_wire().as_bytes() != bytes {
        return Err(format!("{fib:?} re-encodes to other bytes than its image"));
    }
    let mut b = FibBuilder::new(fib.device());
    image
        .read(|e| b.push(e.prefix, e.next_hops().collect(), e.is_local()))
        .map_err(|e| format!("the reader refused an image it decoded: {e}"))?;
    let built = b.finish();
    if built != fib {
        return Err(format!("decoded {fib:?}, built {built:?} from the same entries"));
    }
    Ok(true)
}

/// (d): a list edit of a canonical table's entries must be refused
/// with `cause`.
fn check_refused(device: u32, entries: &[(Prefix, Vec<Ipv4>)], cause: &str) -> Option<String> {
    let image = WireSnapshot::write(device, entries.iter().map(|(p, h)| (*p, h.as_slice())));
    match (check_image(image.as_bytes()), Fib::from_wire(&image)) {
        (Err(msg), _) => Some(msg),
        (Ok(_), Err(e)) if e.to_string().contains(cause) => None,
        (_, outcome) => Some(format!("expected `{cause}`, got {outcome:?}")),
    }
}

fn check_snapshot(r: &mut Rng) -> Option<String> {
    let table = random_table(r);
    let image = table.to_wire();
    let bytes = image.as_bytes();
    match check_image(bytes) {
        Ok(true) => {}
        Ok(false) => return Some(format!("{table:?}: its own image is refused")),
        Err(msg) => return Some(msg),
    }
    for cut in 0..bytes.len() {
        match check_image(&bytes[..cut]) {
            Ok(false) => {}
            Ok(true) => return Some(format!("image truncated to {cut}/{} accepted", bytes.len())),
            Err(msg) => return Some(msg),
        }
    }
    for _ in 0..8 {
        let mut m = bytes.to_vec();
        mutate(r, &mut m);
        if let Err(msg) = check_image(&m) {
            return Some(format!("bit flips: {msg}"));
        }
    }
    let device = table.device().0;
    let entries: Vec<(Prefix, Vec<Ipv4>)> = table
        .entries()
        .iter()
        .map(|e| (e.prefix, table.next_hops(e).to_vec()))
        .collect();
    if entries.is_empty() {
        return None;
    }
    let i = r.below(entries.len() as u64) as usize;
    let named = entries[i].0;
    let mut edited = entries.clone();
    edited.insert(i, edited[i].clone());
    let mut refusals = vec![(edited, format!("prefix {named} named twice"))];
    if i + 1 < entries.len() {
        let mut edited = entries.clone();
        edited.swap(i, i + 1);
        refusals.push((edited, format!("prefix {named} out of order")));
    }
    if let Some(j) = (0..entries.len()).find(|&j| entries[(i + j) % entries.len()].1.len() > 1) {
        let k = (i + j) % entries.len();
        let mut edited = entries.clone();
        let hops = &mut edited[k].1;
        let h = r.below(hops.len() as u64 - 1) as usize;
        hops.swap(h, h + 1);
        let cause = format!("next hops of {} not strictly ascending", entries[k].0);
        refusals.push((edited, cause));
    }
    refusals
        .iter()
        .find_map(|(edited, cause)| check_refused(device, edited, cause))
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

/// The canonicity invariant on arbitrary bytes, for the delta codec.
fn check_mutated(bytes: &[u8]) -> Option<String> {
    let re = FibDelta::decode(bytes).ok()?.encode();
    (re != bytes).then(|| {
        format!(
            "delta: mutated bytes decoded to a value that re-encodes differently \
             ({} vs {} bytes, first diff at {:?})",
            re.len(),
            bytes.len(),
            re.iter().zip(bytes).position(|(a, b)| a != b)
        )
    })
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
        if let Some(msg) = check_mutated(&m) {
            return Some(msg);
        }
        if let Some(msg) = FibDelta::decode(&m).ok().and_then(|d| check_decoded_delta(r, d)) {
            return Some(msg);
        }
    }
    // The two formats must not be confusable.
    if FibDelta::decode(random_table(r).to_wire().as_bytes()).is_ok() {
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
