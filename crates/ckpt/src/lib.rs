#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # darwin-ckpt
//!
//! Std-only binary checkpoint codec, the wire layer of the warm-recovery
//! subsystem (`wire.rs`'s sibling: no serde, no external crates, explicit
//! little-endian layout).
//!
//! Three pieces:
//!
//! * [`Enc`] / [`Dec`] — append-only writer and checked reader for the
//!   primitive vocabulary every checkpointed struct is built from: `u8`,
//!   `u32`, `u64`, `f64` (bit-exact via `to_le_bytes`), `bool`, `usize`
//!   (as `u64`), length-prefixed byte strings and options. Every `Dec`
//!   read is bounds-checked and returns [`CkptError::Truncated`] instead
//!   of panicking — corrupt input must never bring a worker down.
//! * [`crc64`] — CRC-64/XZ (ECMA-182 polynomial, reflected), the frame
//!   integrity check. Detects all single-bit flips and all burst errors
//!   up to 64 bits. Folded by carry-less multiplication where the
//!   processor has it, slice-by-8 in three lanes otherwise: a cut hashes
//!   its image twice (sealed, then opened by the holder it is shipped to),
//!   on the thread that serves requests.
//! * [`seal`] / [`open`] — the versioned frame envelope (an encoder that
//!   owns its body seals in place: [`Enc::frame`], [`Enc::seal`];
//!   [`peek`] finds the body without hashing it):
//!
//!   ```text
//!   magic: u32 LE | version: u16 LE | body_len: u64 LE | body | crc64: u64 LE
//!   ```
//!
//!   `open` validates magic, CRC (over everything before the trailer) and
//!   version, in that order, so callers can distinguish "not a checkpoint"
//!   ([`CkptError::BadMagic`]), "damaged" ([`CkptError::BadCrc`] /
//!   [`CkptError::Truncated`]) and "from another format revision"
//!   ([`CkptError::BadVersion`]) — each of which the shard supervisor
//!   answers with a cold restart, never a panic.
//!
//! Encoders in the state-owning crates keep byte output deterministic
//! (hash maps are serialized sorted by key), so identical state always
//! seals to identical frames — the property the roundtrip proptests pin.
//!
//! The codecs that move sealed checkpoints between holders live on top of
//! the envelope; `darwin-shard` ships with them twice, to its standbys and
//! in its resize handoff:
//!
//! * [`rows`] — the row delta: the rows of an image's id-sorted tables that
//!   changed since a base image, plus the image's other bytes whole. The
//!   codec is format-agnostic: it sees an image through the
//!   [`Layout`](rows::Layout) of tables its owner reports, and takes the
//!   changed rows from the image's writer ([`Changes`](rows::Changes))
//!   instead of diffing when the writer knows them.
//! * [`replica`] — [`CutFrame`](replica::CutFrame): the one shard-,
//!   generation- and role-addressed cut envelope (full image or row delta)
//!   with its one sender ([`ship`](replica::CutFrame::ship), or
//!   [`ship_changes`](replica::CutFrame::ship_changes) with the writer's
//!   list) and one gate with one rebuild behind it, in place over an image
//!   the receiver owns ([`rebuild`](replica::CutFrame::rebuild)) or over a
//!   copy of one it borrows ([`apply`](replica::CutFrame::apply)).
//! * [`delta`] — the rsync-style block diff the row delta replaced,
//!   retired from serving (see its docs).

pub mod delta;
pub mod replica;
pub mod rows;

use std::fmt;

/// Why a checkpoint frame or body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The input ended before the expected data (or a length prefix claims
    /// more bytes than remain).
    Truncated,
    /// The frame does not start with the expected magic number — it is not
    /// a checkpoint of this kind at all.
    BadMagic {
        /// Magic the caller expected.
        expected: u32,
        /// Magic actually found.
        found: u32,
    },
    /// The frame is a valid checkpoint of this kind but from a different
    /// format revision.
    BadVersion {
        /// Version the caller supports.
        expected: u16,
        /// Version actually found.
        found: u16,
    },
    /// The CRC-64 trailer does not match the frame contents (bit rot, torn
    /// write, deliberate corruption).
    BadCrc,
    /// The bytes decoded structurally but violate an invariant of the type
    /// being restored (e.g. a config fingerprint mismatch).
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:#010x}, found {found:#010x}")
            }
            CkptError::BadVersion { expected, found } => {
                write!(f, "bad version: expected {expected}, found {found}")
            }
            CkptError::BadCrc => write!(f, "CRC mismatch"),
            CkptError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` reserved for a frame header
    /// ([`Enc::frame`]): `HEADER_LEN`, or 0 for a plain encoder.
    header: usize,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `capacity` bytes, so an encoding whose
    /// size is known up front is written once instead of grown by doubling.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity), header: 0 }
    }

    /// An empty encoder for a frame body of about `body_capacity` bytes that
    /// [`seal`](Enc::seal)s in place: the header's room is reserved up front
    /// and the trailer's is allocated, so sealing neither copies the body nor
    /// reallocates.
    pub fn frame(body_capacity: usize) -> Self {
        Self::frame_in(Vec::new(), body_capacity)
    }

    /// [`Enc::frame`] written into the allocation of `buf`, whose contents
    /// are discarded: a writer that seals at every cut writes over pages it
    /// already owns. Grown, if it must grow, to exactly the frame's room.
    pub fn frame_in(mut buf: Vec<u8>, body_capacity: usize) -> Self {
        buf.clear();
        buf.reserve_exact(HEADER_LEN + body_capacity + TRAILER_LEN);
        buf.resize(HEADER_LEN, 0);
        Self { buf, header: HEADER_LEN }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.header
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes written so far (for a frame encoder, the body).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.header..]
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..self.header);
        self.buf
    }

    /// Seals what was written as the body of a versioned, CRC-guarded frame
    /// (layout in the crate docs). An [`Enc::frame`] encoder fills in its
    /// reserved header and appends the trailer where the body already lies;
    /// any other encoder's body is moved behind a header first.
    pub fn seal(mut self, magic: u32, version: u16) -> Vec<u8> {
        if self.header != HEADER_LEN {
            let mut framed = Enc::frame(self.len());
            framed.buf.extend_from_slice(&self.buf[self.header..]);
            return framed.seal(magic, version);
        }
        let body_len = (self.buf.len() - HEADER_LEN) as u64;
        let header = &mut self.buf[..HEADER_LEN];
        header[0..4].copy_from_slice(&magic.to_le_bytes());
        header[4..6].copy_from_slice(&version.to_le_bytes());
        header[6..].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc64(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }

    /// Writes bytes as they are, with no length prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` bit-exactly (IEEE-754 bits, little-endian).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an option: a presence byte, then the value if present.
    pub fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a slice as a length prefix followed by each element.
    pub fn seq<T>(&mut self, v: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(v.len());
        for x in v {
            f(self, x);
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless the decoder consumed its input exactly.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Malformed(format!("{} trailing bytes", self.remaining())))
        }
    }

    /// Everything not yet read, for a caller that decodes it on its own.
    pub(crate) fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Malformed("usize overflow".into()))
    }

    /// Reads an `f64` bit-exactly.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Malformed(format!("bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| CkptError::Malformed("invalid UTF-8".into()))
    }

    /// Reads an option written by [`Enc::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CkptError>,
    ) -> Result<Option<T>, CkptError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(CkptError::Malformed(format!("option byte {b}"))),
        }
    }

    /// Reads the length prefix of a sequence written by [`Enc::seq`] whose
    /// elements each occupy at least `min_width` encoded bytes, refusing a
    /// count that what is left of the input cannot hold. Whoever allocates
    /// for the count — [`Dec::seq`] or a caller that walks the elements
    /// itself — therefore reserves no more than the input's own size,
    /// however hostile the prefix.
    pub fn seq_len(&mut self, min_width: usize) -> Result<usize, CkptError> {
        let n = self.usize()?;
        match n.checked_mul(min_width) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(CkptError::Truncated),
        }
    }

    /// Reads a sequence written by [`Enc::seq`]; `min_width` is the fewest
    /// bytes one element encodes to (see [`Dec::seq_len`]).
    pub fn seq<T>(
        &mut self,
        min_width: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, CkptError>,
    ) -> Result<Vec<T>, CkptError> {
        let n = self.seq_len(min_width)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Splits off a decoder over the next `n` bytes and moves past them, so
    /// two regions of one input can be walked side by side.
    pub fn sub(&mut self, n: usize) -> Result<Dec<'a>, CkptError> {
        self.take(n).map(Dec::new)
    }
}

// CRC-64/XZ: ECMA-182 polynomial, reflected, init/xorout = !0.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 tables: `t[0]` is the classic bytewise table, and `t[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes, so eight input
/// bytes fold into the state with eight independent lookups.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// One bytewise CRC step.
#[inline]
fn crc64_byte(crc: u64, b: u8) -> u64 {
    CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8)
}

/// One eight-byte CRC step.
#[inline(always)]
fn crc64_word(crc: u64, word: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let v = crc ^ u64::from_le_bytes(word.try_into().expect("8 bytes"));
    t[7][(v & 0xFF) as usize]
        ^ t[6][((v >> 8) & 0xFF) as usize]
        ^ t[5][((v >> 16) & 0xFF) as usize]
        ^ t[4][((v >> 24) & 0xFF) as usize]
        ^ t[3][((v >> 32) & 0xFF) as usize]
        ^ t[2][((v >> 40) & 0xFF) as usize]
        ^ t[1][((v >> 48) & 0xFF) as usize]
        ^ t[0][(v >> 56) as usize]
}

/// The CRC register after `bytes`, starting from `crc`: eight bytes per
/// step, bytewise tail.
fn crc64_run(mut crc: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = crc64_word(crc, w);
    }
    words.remainder().iter().fold(crc, |crc, &b| crc64_byte(crc, b))
}

/// `a · b mod P` on CRC registers: polynomials over GF(2) with the
/// coefficient of `x^0` in bit 63, as the reflected algorithm keeps them.
fn crc64_mul(mut a: u64, b: u64) -> u64 {
    let mut product = 0;
    for power in 0..64 {
        if b & (1 << (63 - power)) != 0 {
            product ^= a;
        }
        // a · x; a coefficient shifted out was x^63's, and x^64 ≡ P's lower terms.
        a = if a & 1 == 1 { (a >> 1) ^ CRC64_POLY } else { a >> 1 };
    }
    product
}

/// The register `crc` after `len` more bytes, all zero: `crc · x^(8·len)`.
fn crc64_skip(crc: u64, len: usize) -> u64 {
    let (mut power, mut square) = (1 << 63, 1 << 62); // x^0, x^1
    let mut exponent = 8 * len as u128;
    while exponent != 0 {
        if exponent & 1 == 1 {
            power = crc64_mul(power, square);
        }
        square = crc64_mul(square, square);
        exponent >>= 1;
    }
    crc64_mul(crc, power)
}

/// `x^e mod P` as a CRC register: `x^0` multiplied by `x`, `e` times.
const fn crc64_xpow(e: u32) -> u64 {
    let mut power = 1 << 63;
    let mut i = 0;
    while i < e {
        power = if power & 1 == 1 { (power >> 1) ^ CRC64_POLY } else { power >> 1 };
        i += 1;
    }
    power
}

/// CRC-64/XZ by carry-less multiplication, eight 16-byte lanes at a time.
///
/// Read little-endian, a 16-byte block is a polynomial of degree < 128
/// whose first eight bytes hold the high half `H` (`x^127 … x^64`) and the
/// last eight the low half `L`. The CRC only needs the input modulo `P`,
/// and a block followed by `d` more bits contributes `(H·x^64 + L)·x^d`,
/// which is `H·(x^(64+d) mod P) + L·(x^d mod P)`: two 64 × 64-bit
/// carry-less products, a 128-bit value that takes the place of the block
/// `d` bits further on. (The products of reflected operands come out one
/// degree short, so the constants are `x^(63+d)` and `x^(d−1)`.) Eight
/// lanes each fold 1 024 bits ahead per step, are folded onto the last
/// lane at the end, and that one block and the tail go through the table.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{crc64_run, crc64_xpow};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64,
        _mm_xor_si128,
    };

    /// Lanes folded side by side.
    const LANES: usize = 8;

    /// The constants that fold a block `n` blocks ahead: for its high half,
    /// then for its low half.
    const fn ahead(n: u32) -> [u64; 2] {
        [crc64_xpow(128 * n + 63), crc64_xpow(128 * n - 1)]
    }

    /// One step of every lane: [`LANES`] blocks ahead.
    const STEP: [u64; 2] = ahead(LANES as u32);
    /// Lane `i` onto the last lane, `7 − i` blocks ahead of it.
    const ONTO_LAST: [[u64; 2]; LANES - 1] =
        [ahead(7), ahead(6), ahead(5), ahead(4), ahead(3), ahead(2), ahead(1)];

    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(block.try_into().expect("16 bytes"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x` moved the distance `k` was made for.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: [u64; 2]) -> __m128i {
        let k = _mm_set_epi64x(k[1] as i64, k[0] as i64);
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x, k), _mm_clmulepi64_si128::<0x11>(x, k))
    }

    /// CRC-64/XZ of `bytes`. Safe code, but it may only run on a processor
    /// with `pclmulqdq`: calling it is `unsafe` outside this module, and
    /// its one caller checks first.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn crc64(bytes: &[u8]) -> u64 {
        let mut steps = bytes.chunks_exact(16 * LANES);
        let Some(first) = steps.next() else { return !crc64_run(!0, bytes) };
        let mut lanes = [_mm_set_epi64x(0, 0); LANES];
        for (lane, block) in lanes.iter_mut().zip(first.chunks_exact(16)) {
            *lane = load(block);
        }
        // The initial register enters xored into the first eight bytes.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(0, -1));
        for step in &mut steps {
            for (lane, block) in lanes.iter_mut().zip(step.chunks_exact(16)) {
                *lane = _mm_xor_si128(fold(*lane, STEP), load(block));
            }
        }
        let mut last = lanes[LANES - 1];
        for (&lane, k) in lanes.iter().zip(ONTO_LAST) {
            last = _mm_xor_si128(last, fold(lane, k));
        }
        let (lo, hi) =
            (_mm_cvtsi128_si64(last) as u64, _mm_cvtsi128_si64(_mm_unpackhi_epi64(last, last)));
        let block = (u128::from(hi as u64) << 64 | u128::from(lo)).to_le_bytes();
        !crc64_run(crc64_run(0, &block), steps.remainder())
    }
}

/// The carry-less-multiply CRC of `bytes`, or `None` on a processor
/// without `pclmulqdq`.
#[cfg(target_arch = "x86_64")]
fn crc64_clmul(bytes: &[u8]) -> Option<u64> {
    if !std::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `clmul::crc64` is safe code that needs the `pclmulqdq`
    // instructions, and the check above found them on this processor.
    Some(unsafe { clmul::crc64(bytes) })
}

/// Carry-less multiplication is only written for x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn crc64_clmul(_: &[u8]) -> Option<u64> {
    None
}

/// CRC-64/XZ checksum of `bytes`: folded by carry-less multiplication
/// where the processor has it (`clmul`, ≈ 25 GB/s on the benchmark host),
/// table-driven otherwise (`crc64_portable`, ≈ 4.7 GB/s).
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_clmul(bytes).unwrap_or_else(|| crc64_portable(bytes))
}

/// Inputs at least this long are hashed as [`LANES`] pieces side by side.
const LANED_LEN: usize = 64 * 1024;
/// Pieces hashed side by side.
const LANES: usize = 3;

/// CRC-64/XZ from the tables alone.
///
/// A table-driven CRC is a chain of dependent lookups, one turn per eight
/// bytes, and the processor waits on it. The register is linear in the
/// input, so a long input is cut into three equal pieces whose chains
/// run interleaved — the first from the initial register, the others from
/// zero — and the pieces are joined by what a piece's register would have
/// become over the zero bytes of the pieces after it (`crc64_skip`, a few
/// microseconds against the megabytes it stands for).
fn crc64_portable(bytes: &[u8]) -> u64 {
    if bytes.len() < LANED_LEN {
        return !crc64_run(!0, bytes);
    }
    let lane = bytes.len() / LANES / 8 * 8;
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, tail) = rest.split_at(lane);
    let mut crcs = [!0u64, 0, 0];
    for ((a, b), c) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
        crcs = [crc64_word(crcs[0], a), crc64_word(crcs[1], b), crc64_word(crcs[2], c)];
    }
    let joined = crc64_skip(crc64_skip(crcs[0], lane) ^ crcs[1], lane) ^ crcs[2];
    !crc64_run(joined, tail)
}

/// Frame header length — magic (4) + version (2) + body length (8) — and
/// so the offset of a frame's body.
pub const HEADER_LEN: usize = 14;
/// CRC trailer length.
const TRAILER_LEN: usize = 8;

/// Seals `body` into a versioned, CRC-guarded frame. An encoder that owns
/// its body seals without this copy: [`Enc::frame`] + [`Enc::seal`].
pub fn seal(magic: u32, version: u16, body: &[u8]) -> Vec<u8> {
    let mut enc = Enc::frame(body.len());
    enc.raw(body);
    enc.seal(magic, version)
}

/// Opens a frame sealed by [`seal`], returning the body on success.
/// Validation order: length, magic, CRC, version, body length — so damage
/// and format drift produce the most specific error available.
pub fn open(frame: &[u8], magic: u32, version: u16) -> Result<&[u8], CkptError> {
    check_magic(frame, magic)?;
    let split = frame.len() - TRAILER_LEN;
    let stored = u64::from_le_bytes(frame[split..].try_into().expect("8 bytes"));
    if crc64(&frame[..split]) != stored {
        return Err(CkptError::BadCrc);
    }
    body(frame, version)
}

/// The body of a frame sealed by [`seal`], found the way [`open`] finds it
/// but not hashed: length, magic, version and body length are checked, the
/// CRC is not. For a caller that only finds its way around a frame whose
/// integrity is checked where it is used.
pub fn peek(frame: &[u8], magic: u32, version: u16) -> Result<&[u8], CkptError> {
    check_magic(frame, magic)?;
    body(frame, version)
}

/// A frame long enough for its header and trailer, opening with `magic`.
fn check_magic(frame: &[u8], magic: u32) -> Result<(), CkptError> {
    if frame.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CkptError::Truncated);
    }
    let found_magic = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
    if found_magic != magic {
        return Err(CkptError::BadMagic { expected: magic, found: found_magic });
    }
    Ok(())
}

/// The body of a frame [`check_magic`] passed, if its version and body
/// length are right.
fn body(frame: &[u8], version: u16) -> Result<&[u8], CkptError> {
    let split = frame.len() - TRAILER_LEN;
    let found_version = u16::from_le_bytes(frame[4..6].try_into().expect("2 bytes"));
    if found_version != version {
        return Err(CkptError::BadVersion { expected: version, found: found_version });
    }
    let body_len = u64::from_le_bytes(frame[6..14].try_into().expect("8 bytes"));
    if body_len != (split - HEADER_LEN) as u64 {
        return Err(CkptError::Malformed("body length mismatch".into()));
    }
    Ok(&frame[HEADER_LEN..split])
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0xDA12_34B0;
    const VERSION: u16 = 1;

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 3);
        enc.usize(123_456);
        enc.f64(-0.125);
        enc.f64(f64::NAN);
        enc.bool(true);
        enc.bool(false);
        enc.bytes(b"hello");
        enc.str("caf\u{e9}");
        enc.opt(Some(&42u64), |e, v| e.u64(*v));
        enc.opt::<u64>(None, |e, v| e.u64(*v));
        enc.seq(&[1u64, 2, 3], |e, v| e.u64(*v));
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.usize().unwrap(), 123_456);
        assert_eq!(dec.f64().unwrap(), -0.125);
        assert!(dec.f64().unwrap().is_nan(), "NaN survives bit-exactly");
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.bytes().unwrap(), b"hello");
        assert_eq!(dec.str().unwrap(), "caf\u{e9}");
        assert_eq!(dec.opt(|d| d.u64()).unwrap(), Some(42));
        assert_eq!(dec.opt(|d| d.u64()).unwrap(), None);
        assert_eq!(dec.seq(8, |d| d.u64()).unwrap(), vec![1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut dec = Dec::new(&[1, 2]);
        assert_eq!(dec.u64(), Err(CkptError::Truncated));
        // Failed read consumed nothing.
        assert_eq!(dec.remaining(), 2);
        assert_eq!(dec.u8().unwrap(), 1);
    }

    #[test]
    fn corrupt_length_prefix_is_bounded() {
        let mut enc = Enc::new();
        enc.usize(usize::MAX / 2); // absurd sequence length
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.seq(1, |d| d.u8()), Err(CkptError::Truncated));
    }

    /// A length prefix that passes "one byte per element" but not the rows'
    /// real width: a well-sealed frame of `n` claimed 32-byte rows in `n`
    /// bytes. It used to reserve 32× the frame before the first row came up
    /// short; now it is refused before anything is reserved or read.
    #[test]
    fn a_sealed_frame_cannot_claim_more_rows_than_it_has_bytes_for() {
        const ROW: usize = 32;
        for (claimed, body_bytes) in
            [(1 << 20, 1 << 20), (1 << 20, ROW * (1 << 20) - 1), (usize::MAX, 64)]
        {
            let mut enc = Enc::new();
            enc.usize(claimed);
            let mut body = enc.into_bytes();
            body.resize(8 + body_bytes, 0xAB);
            let frame = seal(0x4441_5257, 1, &body);

            let mut dec = Dec::new(open(&frame, 0x4441_5257, 1).expect("the seal is good"));
            let mut rows_read = 0;
            let rows = dec.seq(ROW, |d| {
                rows_read += 1;
                d.u64()
            });
            assert_eq!(rows, Err(CkptError::Truncated), "{claimed} rows in {body_bytes} bytes");
            assert_eq!(rows_read, 0, "refused before a row is read or a slot reserved");

            let mut dec = Dec::new(open(&frame, 0x4441_5257, 1).expect("the seal is good"));
            assert_eq!(dec.seq_len(ROW), Err(CkptError::Truncated));
        }
        // Exactly enough bytes is enough.
        let mut enc = Enc::new();
        enc.seq(&[[7u64; 4]; 3], |e, row| row.iter().for_each(|&v| e.u64(v)));
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.seq_len(ROW), Ok(3));
        let mut rows = dec.sub(2 * ROW).expect("two rows are there");
        assert_eq!((rows.remaining(), dec.remaining()), (2 * ROW, ROW));
        assert_eq!(rows.u64(), Ok(7));
        assert_eq!(dec.sub(ROW + 1).err(), Some(CkptError::Truncated));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let dec = Dec::new(&[0]);
        assert!(matches!(dec.finish(), Err(CkptError::Malformed(_))));
    }

    /// The byte-at-a-time loop `crc64` used to be, kept as the oracle for
    /// the eight-byte stride and the lanes.
    pub(crate) fn crc64_reference(bytes: &[u8]) -> u64 {
        !bytes.iter().fold(!0u64, |crc, &b| crc64_byte(crc, b))
    }

    #[test]
    fn crc64_known_vectors() {
        // CRC-64/XZ of "123456789" is 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_reference(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // Exactly one and two strides: no bytewise tail at all.
        assert_eq!(crc64(b"12345678"), crc64_reference(b"12345678"));
        assert_eq!(crc64(b"0123456789abcdef"), crc64_reference(b"0123456789abcdef"));
    }

    #[test]
    fn crc64_matches_bytewise_reference_at_every_length_and_alignment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..308)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc64(s), crc64_reference(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn laned_crc64_matches_the_bytewise_reference_around_every_seam() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..LANED_LEN + 3 * 64)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        // Below the threshold, at it, and every lane length and tail length
        // (a lane is a multiple of 8; the tail is whatever is left, 0..32).
        for len in LANED_LEN - 2..=buf.len() {
            assert_eq!(crc64_portable(&buf[..len]), crc64_reference(&buf[..len]), "len {len}");
        }
        assert_eq!(crc64_portable(&buf[5..]), crc64_reference(&buf[5..]), "unaligned start");
        // Skipping is hashing zeros, from any register.
        for (crc, len) in [(!0u64, 0usize), (!0, 1), (0, 9), (0x0123_4567_89AB_CDEF, 4099)] {
            assert_eq!(crc64_skip(crc, len), crc64_run(crc, &vec![0; len]), "skip {len}");
        }
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Both kernels, called directly rather than through `crc64`'s choice,
    /// against the bytewise oracle. The carry-less one is skipped only on a
    /// processor without `pclmulqdq`.
    fn kernels_agree(s: &[u8], what: &str) {
        let want = crc64_reference(s);
        assert_eq!(crc64_portable(s), want, "portable, {what}");
        if let Some(got) = crc64_clmul(s) {
            assert_eq!(got, want, "carry-less, {what}");
        }
    }

    #[test]
    fn crc64_kernels_match_the_bytewise_reference() {
        // Every length up to sixteen 128-byte steps, from every alignment.
        let buf = noise(2048 + 16, 0x5DEE_CE66_D1CE_4E5B);
        for start in 0..16 {
            for len in 0..=2048 {
                kernels_agree(&buf[start..start + len], &format!("start {start} len {len}"));
            }
        }
        // Around the 1 KiB boundaries further out, and the portable lanes'
        // threshold.
        let buf = noise(LANED_LEN + 1024, 0x9E37_79B9_7F4A_7C15);
        for at in (1024..=16 * 1024).step_by(1024).chain([LANED_LEN]) {
            for len in [at - 17, at - 16, at - 1, at, at + 1, at + 15, at + 16, at + 127, at + 128] {
                kernels_agree(&buf[3..3 + len], &format!("len {len}"));
            }
        }
        // Megabytes: what a cut hashes.
        for (len, seed) in [(1 << 20, 1), ((2 << 20) + 13, 2), ((3 << 20) + 100, 3)] {
            kernels_agree(&noise(len, seed), &format!("{len} random bytes"));
        }
    }

    #[test]
    fn fold_constants_are_powers_of_x() {
        for len in [0usize, 1, 8, 16, 135] {
            assert_eq!(crc64_xpow(8 * len as u32), crc64_skip(1 << 63, len), "x^(8·{len})");
        }
        assert_eq!(crc64_xpow(64), CRC64_POLY, "x^64 ≡ the polynomial's lower terms");
    }

    #[test]
    fn frame_encoder_seals_in_place_to_the_same_bytes() {
        let write = |e: &mut Enc| {
            e.u64(7);
            e.bytes(b"learned state");
        };
        let (mut plain, mut framed) = (Enc::new(), Enc::frame(64));
        write(&mut plain);
        write(&mut framed);
        assert_eq!((plain.len(), plain.is_empty()), (framed.len(), framed.is_empty()));
        let body = {
            let mut e = Enc::with_capacity(29);
            write(&mut e);
            e.into_bytes()
        };
        let sealed = seal(MAGIC, VERSION, &body);
        assert_eq!(plain.seal(MAGIC, VERSION), sealed);
        let at = framed.buf.as_ptr();
        let in_place = framed.seal(MAGIC, VERSION);
        assert_eq!(in_place, sealed);
        assert_eq!(in_place.as_ptr(), at, "sealing a sized frame encoder must not move the body");
        // A frame encoder still yields just its body when not sealed.
        let mut framed = Enc::frame(0);
        write(&mut framed);
        assert_eq!(framed.into_bytes(), body);
        assert!(Enc::frame(8).is_empty());
        // Into a buffer that holds an older frame: same bytes, same pages.
        let old = vec![0xEE; 4096];
        let at = old.as_ptr();
        let mut reused = Enc::frame_in(old, 29);
        write(&mut reused);
        let resealed = reused.seal(MAGIC, VERSION);
        assert_eq!((resealed.as_ptr(), &resealed), (at, &sealed));
        // A buffer too small grows to the frame's room and no further.
        let mut grown = Enc::frame_in(vec![1; 3], 29);
        write(&mut grown);
        let grown = grown.seal(MAGIC, VERSION);
        assert_eq!((grown.capacity(), &grown), (grown.len(), &sealed));
    }

    #[test]
    fn peek_is_open_without_the_crc() {
        let frame = seal(MAGIC, VERSION, b"laid out, not hashed");
        assert_eq!(peek(&frame, MAGIC, VERSION), open(&frame, MAGIC, VERSION));
        assert_eq!(&frame[HEADER_LEN..HEADER_LEN + 8], b"laid out");
        let mut flipped = frame.clone();
        flipped[HEADER_LEN] ^= 1;
        assert_eq!(open(&flipped, MAGIC, VERSION), Err(CkptError::BadCrc));
        assert_eq!(peek(&flipped, MAGIC, VERSION).unwrap()[0], b'l' ^ 1);
        // Everything else `open` checks, `peek` checks the same way.
        for bad in [seal(MAGIC + 1, VERSION, b"x"), seal(MAGIC, VERSION + 1, b"x"), frame[..5].to_vec()]
        {
            assert_eq!(peek(&bad, MAGIC, VERSION), open(&bad, MAGIC, VERSION));
            assert!(peek(&bad, MAGIC, VERSION).is_err());
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let body = b"checkpoint body".to_vec();
        let frame = seal(MAGIC, VERSION, &body);
        assert_eq!(open(&frame, MAGIC, VERSION).unwrap(), &body[..]);
        // Empty body is fine too.
        let frame = seal(MAGIC, VERSION, &[]);
        assert_eq!(open(&frame, MAGIC, VERSION).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn open_rejects_wrong_magic() {
        let frame = seal(MAGIC, VERSION, b"x");
        assert_eq!(
            open(&frame, MAGIC + 1, VERSION),
            Err(CkptError::BadMagic { expected: MAGIC + 1, found: MAGIC })
        );
    }

    #[test]
    fn open_rejects_wrong_version() {
        let frame = seal(MAGIC, 2, b"x");
        assert_eq!(
            open(&frame, MAGIC, VERSION),
            Err(CkptError::BadVersion { expected: VERSION, found: 2 })
        );
    }

    #[test]
    fn open_rejects_every_single_bit_flip() {
        let frame = seal(MAGIC, VERSION, b"warm recovery frame");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open(&bad, MAGIC, VERSION).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn open_rejects_every_truncation() {
        let frame = seal(MAGIC, VERSION, b"torn write victim");
        for keep in 0..frame.len() {
            assert!(open(&frame[..keep], MAGIC, VERSION).is_err(), "kept {keep} bytes");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const MAGIC: u32 = 0xDA12_34B0;

    proptest! {
        /// Any body roundtrips through seal/open bit-exactly.
        #[test]
        fn any_body_roundtrips(body in proptest::collection::vec(0u8..=255, 0..512)) {
            let frame = seal(MAGIC, 1, &body);
            prop_assert_eq!(open(&frame, MAGIC, 1).unwrap(), &body[..]);
        }

        /// Any single bit flip in a sealed frame is detected.
        #[test]
        fn any_bit_flip_detected(
            body in proptest::collection::vec(0u8..=255, 0..256),
            pos in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let frame = seal(MAGIC, 1, &body);
            let mut bad = frame.clone();
            let byte = ((pos * bad.len() as f64) as usize).min(bad.len() - 1);
            bad[byte] ^= 1 << bit;
            prop_assert!(open(&bad, MAGIC, 1).is_err());
        }

        /// Any truncation of a sealed frame is detected.
        #[test]
        fn any_truncation_detected(
            body in proptest::collection::vec(0u8..=255, 0..256),
            cut in 0.0f64..1.0,
        ) {
            let frame = seal(MAGIC, 1, &body);
            let keep = ((cut * frame.len() as f64) as usize).min(frame.len() - 1);
            prop_assert!(open(&frame[..keep], MAGIC, 1).is_err());
        }

        /// The eight-byte stride agrees with the bytewise oracle on any
        /// slice.
        #[test]
        fn crc64_matches_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..1024),
            skip in 0usize..8,
        ) {
            let s = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc64(s), crate::tests::crc64_reference(s));
        }

        /// Decoding arbitrary bytes as a frame never panics.
        #[test]
        fn open_never_panics(junk in proptest::collection::vec(0u8..=255, 0..128)) {
            let _ = open(&junk, MAGIC, 1);
        }
    }
}
