//! Byte-identity of the block-delta matcher.
//!
//! `DeltaFrame::compute` was rebuilt for speed (flat block index, literal
//! runs sliced out of the target, copy runs followed block to block without
//! a probe); what it *emits* must not have moved by a byte, because standbys and resize destinations account shipped bytes and
//! re-validate images against what the old matcher would have sent. The
//! oracle below is that old matcher — a `HashMap<weak key, Vec<offset>>`
//! probed once per literal byte, the literal grown a byte at a time — written
//! against `darwin-ckpt`'s public codec only, so it shares no code with the
//! implementation it judges. It lives here rather than beside the matcher
//! because the last case needs real `ShardCheckpoint` frames.

use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::delta::{DeltaFrame, DELTA_MAGIC, DELTA_VERSION};
use darwin_ckpt::{crc64, seal, Enc};
use darwin_shard::ShardCheckpoint;
use darwin_trace::{MixSpec, TraceGenerator, TrafficClass};
use std::collections::HashMap;

const BLOCK: usize = 64;

#[derive(Clone, Copy)]
struct WeakHash {
    a: u32,
    b: u32,
}

impl WeakHash {
    fn of(block: &[u8]) -> Self {
        let mut h = WeakHash { a: 0, b: 0 };
        for (i, &byte) in block.iter().enumerate() {
            h.a = h.a.wrapping_add(byte as u32);
            h.b = h.b.wrapping_add((block.len() - i) as u32 * byte as u32);
        }
        h
    }

    fn roll(&mut self, out: u8, inn: u8, len: usize) {
        self.a = self.a.wrapping_sub(out as u32).wrapping_add(inn as u32);
        self.b = self.b.wrapping_sub(len as u32 * out as u32).wrapping_add(self.a);
    }

    fn key(&self) -> u64 {
        ((self.b as u64) << 32) | self.a as u64
    }
}

enum Op {
    Copy { offset: u64, len: u64 },
    Literal(Vec<u8>),
}

/// The sealed delta frame the pre-rebuild matcher produced for `base → target`.
fn reference_frame(base: &[u8], target: &[u8]) -> Vec<u8> {
    let mut ops = Vec::new();
    if target.is_empty() {
    } else if base.len() < BLOCK || target.len() < BLOCK {
        ops.push(Op::Literal(target.to_vec()));
    } else {
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, block) in base.chunks_exact(BLOCK).enumerate() {
            index.entry(WeakHash::of(block).key()).or_default().push(i * BLOCK);
        }
        let mut pending = Vec::new();
        let mut pos = 0usize;
        let mut weak = WeakHash::of(&target[..BLOCK]);
        loop {
            let window = &target[pos..pos + BLOCK];
            let matched = index.get(&weak.key()).and_then(|offsets| {
                offsets.iter().find(|&&off| &base[off..off + BLOCK] == window).copied()
            });
            if let Some(off) = matched {
                if !pending.is_empty() {
                    ops.push(Op::Literal(std::mem::take(&mut pending)));
                }
                match ops.last_mut() {
                    Some(Op::Copy { offset, len }) if *offset + *len == off as u64 => {
                        *len += BLOCK as u64;
                    }
                    _ => ops.push(Op::Copy { offset: off as u64, len: BLOCK as u64 }),
                }
                pos += BLOCK;
                if pos + BLOCK > target.len() {
                    break;
                }
                weak = WeakHash::of(&target[pos..pos + BLOCK]);
            } else {
                pending.push(target[pos]);
                if pos + BLOCK + 1 > target.len() {
                    pos += 1;
                    break;
                }
                weak.roll(target[pos], target[pos + BLOCK], BLOCK);
                pos += 1;
            }
        }
        pending.extend_from_slice(&target[pos..]);
        if !pending.is_empty() {
            ops.push(Op::Literal(pending));
        }
    }
    let mut e = Enc::new();
    e.u64(base.len() as u64);
    e.u64(crc64(base));
    e.u64(target.len() as u64);
    e.u64(crc64(target));
    e.seq(&ops, |e, op| match op {
        Op::Copy { offset, len } => {
            e.u8(0x01);
            e.u64(*offset);
            e.u64(*len);
        }
        Op::Literal(bytes) => {
            e.u8(0x02);
            e.bytes(bytes);
        }
    });
    seal(DELTA_MAGIC, DELTA_VERSION, &e.into_bytes())
}

/// The matcher's frame is the oracle's, byte for byte, and still rebuilds
/// the target.
#[track_caller]
fn assert_identical(base: &[u8], target: &[u8], what: &str) {
    let frame = DeltaFrame::compute(base, target).to_frame();
    assert!(frame == reference_frame(base, target), "{what}: delta frame bytes moved");
    let rebuilt = DeltaFrame::from_frame(&frame).unwrap().apply(base).unwrap();
    assert!(rebuilt == target, "{what}: delta does not rebuild the target");
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 8) as u8).collect()
    }
}

#[test]
fn scattered_edits_inserts_and_deletes() {
    for seed in 1..=4u64 {
        let mut rng = Lcg(seed);
        let len = 192 * 1024 + rng.below(4096);
        let base = rng.bytes(len);
        let mut target = base.clone();
        for _ in 0..40 {
            let at = rng.below(target.len() - 512);
            match rng.below(3) {
                // Overwrite in place: blocks after it stay aligned.
                0 => {
                    let n = 1 + rng.below(300);
                    let patch = rng.bytes(n);
                    target[at..at + n].copy_from_slice(&patch);
                }
                // Insert or delete a run that is not a multiple of the block,
                // so every later match sits at an unaligned target offset.
                1 => {
                    let n = 1 + rng.below(200);
                    let n = n + usize::from(n.is_multiple_of(BLOCK));
                    let patch = rng.bytes(n);
                    target.splice(at..at, patch);
                }
                _ => {
                    let n = 1 + rng.below(200);
                    let n = n + usize::from(n.is_multiple_of(BLOCK));
                    target.drain(at..at + n);
                }
            }
        }
        assert_identical(&base, &target, &format!("seed {seed}"));
        assert_identical(&target, &base, &format!("seed {seed}, reversed"));
    }
}

#[test]
fn long_runs_of_identical_blocks() {
    // Thousands of base blocks under one weak key (zero-filled and
    // constant-filled regions), duplicates of a random block far apart, and a
    // target that moves all of them: the first offset in base order must win
    // exactly as before — and the scan must end.
    let mut rng = Lcg(7);
    let dup = rng.bytes(BLOCK);
    let mut base = vec![0u8; 96 * 1024];
    base.extend_from_slice(&rng.bytes(8 * 1024));
    base.extend_from_slice(&dup);
    base.extend_from_slice(&vec![0xAB; 64 * 1024]);
    base.extend_from_slice(&dup);
    base.extend_from_slice(&rng.bytes(5000));
    base.extend_from_slice(&vec![0u8; 32 * 1024 + 17]);
    assert_identical(&base, &base, "identity over runs");

    let mut target = vec![0u8; 1000];
    target.extend_from_slice(&dup);
    target.extend_from_slice(&vec![0xAB; 10_000]);
    target.extend_from_slice(&base[90 * 1024..130 * 1024]);
    target.extend_from_slice(&dup);
    target.extend_from_slice(&vec![0u8; 70 * 1024 + 5]);
    target[40_000] = 1; // one dirty byte inside a run
    assert_identical(&base, &target, "moved runs");
    assert_identical(&target, &base, "moved runs, reversed");
    assert_identical(&vec![0u8; 256 * 1024], &vec![0u8; 200 * 1024 + 3], "all zeros");
}

/// A block with `block`'s weak key and other bytes: +1, −2, +1 at evenly
/// spaced positions moves neither the byte sum nor the weighted sum.
fn weak_twin(block: &[u8]) -> Vec<u8> {
    let mut twin = block.to_vec();
    (twin[10], twin[20], twin[30]) = (block[10] / 2 + 1, block[20] / 2 + 2, block[30] / 2 + 1);
    let mut original = block.to_vec();
    (original[10], original[20], original[30]) = (block[10] / 2, block[20] / 2 + 4, block[30] / 2);
    assert_eq!(WeakHash::of(&twin).key(), WeakHash::of(&original).key());
    assert_ne!(twin, original);
    twin
}

#[test]
fn a_copy_run_stops_following_where_the_next_block_has_an_earlier_twin() {
    let mut rng = Lcg(21);
    let (x, y, w, v) = (rng.bytes(BLOCK), rng.bytes(BLOCK), rng.bytes(BLOCK), rng.bytes(BLOCK));
    // Base X Y W Y V, target W Y V: the block after W is Y's *second*
    // appearance, so the copy of W must not run on into it — the oracle
    // copies the first Y, then V from where it lies.
    let base = [&x[..], &y, &w, &y, &v].concat();
    let target = [&w[..], &y, &v].concat();
    assert_identical(&base, &target, "second appearance after a match");
    // The same with unaligned target offsets and a run long enough to follow.
    let long: Vec<u8> = rng.bytes(20 * BLOCK);
    let base = [&y[..], &long, &w, &y, &long, &v].concat();
    let target = [&[7u8; 5][..], &w, &y, &long, &v, &[9u8; 3], &long, &y].concat();
    assert_identical(&base, &target, "twins inside followed runs");
    assert_identical(&target, &base, "twins inside followed runs, reversed");

    // An earlier block that only shares the weak key is no twin to the
    // bytes, whatever the flag says: the run goes on through the real block.
    let mut c = rng.bytes(BLOCK);
    (c[10], c[20], c[30]) = (c[10] / 2, c[20] / 2 + 4, c[30] / 2);
    let fake = weak_twin(&c);
    let base = [&x[..], &fake, &y, &w, &c, &v].concat();
    let target = [&w[..], &c, &v, &fake, &c].concat();
    assert_identical(&base, &target, "weak-key twin with other bytes");
}

#[test]
fn zero_filled_and_repeated_blocks_around_copy_runs() {
    let mut rng = Lcg(22);
    let zeros = vec![0u8; 12 * BLOCK];
    let pattern = rng.bytes(BLOCK);
    let repeated: Vec<u8> = pattern.iter().cycle().take(9 * BLOCK).copied().collect();
    let (head, tail) = (rng.bytes(6 * BLOCK), rng.bytes(6 * BLOCK));
    // A unique run leading into zeros, into a repeated pattern, and out
    // again: every block of the filled regions but the first has a twin.
    let base = [&head[..], &zeros, &tail, &repeated, &head].concat();
    for shift in [0usize, 1, 63] {
        let lead = vec![0xC3u8; shift];
        for (target, what) in [
            ([&lead[..], &head, &zeros[..5 * BLOCK], &tail].concat(), "unique → zeros → unique"),
            ([&lead[..], &tail, &repeated[..4 * BLOCK + 7], &head].concat(), "unique → repeated"),
            ([&lead[..], &zeros, &zeros, &repeated, &repeated].concat(), "only filled regions"),
            ([&lead[..], &base[3 * BLOCK..]].concat(), "the base from its fourth block on"),
        ] {
            assert_identical(&base, &target, &format!("{what}, shifted {shift}"));
            assert_identical(&target, &base, &format!("{what}, shifted {shift}, reversed"));
        }
    }
}

#[test]
fn images_drawn_from_a_few_blocks_are_all_twins() {
    // Six distinct blocks, one of them zeros: nearly every block of the base
    // has an earlier twin, copy runs start and stop everywhere, and inserted
    // odd-length junk keeps the target off the block grid.
    for seed in 31..=38u64 {
        let mut rng = Lcg(seed);
        let mut alphabet: Vec<Vec<u8>> = (0..5).map(|_| rng.bytes(BLOCK)).collect();
        alphabet.push(vec![0; BLOCK]);
        let draw = |rng: &mut Lcg, blocks: usize| -> Vec<u8> {
            let mut image = Vec::new();
            for _ in 0..blocks {
                if rng.below(9) == 0 {
                    let junk = 1 + rng.below(2 * BLOCK);
                    image.extend(rng.bytes(junk));
                }
                image.extend_from_slice(&alphabet[rng.below(alphabet.len())]);
            }
            image
        };
        let base = draw(&mut rng, 300);
        let mut target = draw(&mut rng, 100);
        // Long stretches of the base itself, so runs do get followed.
        for _ in 0..4 {
            let at = rng.below(base.len() / 2);
            target.extend_from_slice(&base[at..at + base.len() / 3]);
            let junk = 1 + rng.below(40);
            target.extend(rng.bytes(junk));
        }
        assert_identical(&base, &target, &format!("seed {seed}"));
        assert_identical(&target, &base, &format!("seed {seed}, reversed"));
    }
}

#[test]
fn every_length_pair_around_the_block_size() {
    let lens = [0usize, 1, 63, 64, 65, 127, 128, 129];
    let (a, b) = (Lcg(11).bytes(129), Lcg(12).bytes(129));
    for base_len in lens {
        for target_len in lens {
            // Shared content (prefixes of one image), unrelated content, and
            // shared content shifted by one byte.
            assert_identical(
                &a[..base_len],
                &a[..target_len],
                &format!("{base_len}/{target_len} shared"),
            );
            assert_identical(
                &a[..base_len],
                &b[..target_len],
                &format!("{base_len}/{target_len} unrelated"),
            );
            let shifted = [&b[..1], &a[..target_len.saturating_sub(1)]].concat();
            assert_identical(
                &a[..base_len],
                &shifted[..target_len.min(shifted.len())],
                &format!("{base_len}/{target_len} shifted"),
            );
        }
    }
}

#[test]
fn two_consecutive_checkpoints_of_a_live_cache() {
    let config = CacheConfig { expected_unique_objects: 4096, ..CacheConfig::small_test() };
    let policy = ThresholdPolicy::new(2, 100 * 1024);
    let mix = MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5);
    let trace = TraceGenerator::new(mix, 15).generate(6_000);
    let mut server = CacheServer::new(config);
    server.set_policy(policy);
    let mut frames = Vec::new();
    for (i, r) in trace.requests().iter().enumerate() {
        server.process(r);
        let seq = i as u64 + 1;
        if seq == 3_000 || seq == 6_000 {
            let ckpt = ShardCheckpoint {
                shard: 0,
                seq,
                policy,
                cache: server.save_state(),
                driver: vec![seq as u8; 300],
                restarts: 0,
                budget_marks: Vec::new(),
            };
            frames.push(ckpt.to_frame());
        }
    }
    let (earlier, later) = (&frames[0], &frames[1]);
    assert!(later.len() <= 256 * 1024, "keep the debug-build suite quick: {} B", later.len());
    assert_identical(earlier, later, "checkpoint 3000 → 6000");
    let shipped = DeltaFrame::compute(earlier, later).to_frame().len();
    assert!(shipped < later.len(), "a real cut pair shares blocks: {shipped} of {} B", later.len());
}
